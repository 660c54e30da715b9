"""The blockwise and in-place CARS passes against their one-shot forms.

Every pass over the covariates works in blocks of at most ``data.BLOCK_CELLS``
cells or in place, and when d > m the weighted rows a are rebuilt in panels
of ``shrinkage.PANEL_COLUMNS`` columns for each product.  Each test shrinks
the budget to tiny and odd values and asserts that the outputs are
bit-identical to one full-width block and to the one-shot expressions below,
which build whole n x d (or m x d) temporaries; products summed over several
panels match them up to rounding.  The inputs cover both whitener routes
(d <= m and d > m), a column count that no block width divides, constant and
rounded columns and rows of zero weight.
"""

import tracemalloc

import numpy as np
import pytest

from survscreen import cars, data, shrinkage
from survscreen.data import SurvivalSample, covariate_summary

from helpers import weighted_covariances, weighted_mean

BUDGETS = [1, 7, 97, 1001]
ONE_BLOCK = 1 << 40


def summary_oneshot(x, weights):
    carried = weights > 0
    xt = np.ascontiguousarray(x.T[:, carried])
    w = weights[carried]
    total = float(w.sum())
    means = (xt * w).sum(axis=1) / total
    variances = ((xt - means[:, None]) ** 2 * w).sum(axis=1) / (total - 1.0)
    variances[(xt == xt[:, :1]).all(axis=1)] = 0.0
    return means, variances


def covariances_oneshot(sample, weights, mean_w, means):
    wy = weights * (sample.log_times - mean_w)
    centered_t = np.ascontiguousarray(sample.covariates.T) - means[:, None]
    return (centered_t * wy).sum(axis=1) / sample.n


def weighted_rows_oneshot(x, weights):
    """Standardized by the one-shot summary, its variances times (sum(w) - 1) / sum(w)."""
    means, variances = summary_oneshot(x, weights)
    carried = weights > 0
    total = weights[carried].sum()
    p = weights[carried] / total
    var = variances * ((total - 1.0) / total)
    ok = var > 0
    z = x[carried] - means
    z[:, ok] *= 1.0 / np.sqrt(var[ok])
    z[:, ~ok] = 0.0
    z *= np.sqrt(p)[:, None]
    return z, p


def weighted_rows_own_moments(x, weights):
    """Standardized by its own p-weighted moments (BLAS products): an
    independent form of the same rows, equal up to rounding."""
    carried = weights > 0
    x = x[carried]
    p = weights[carried] / weights[carried].sum()
    z = x - p @ x
    var = p @ z**2
    ok = (var > 0) & ~(x == x[0]).all(axis=0)
    z[:, ok] *= 1.0 / np.sqrt(var[ok])
    z[:, ~ok] = 0.0
    return z * np.sqrt(p)[:, None]


def lambda_oneshot(a, p, gram):
    sq = a**2
    v_sq_sum = float(((sq.sum(axis=1) ** 2 - (sq**2).sum(axis=1)) / p).sum())
    col_sq = sq.sum(axis=0)
    cross_sq = float((gram * gram).sum() - (col_sq**2).sum())
    if cross_sq <= 0:
        return 1.0
    p_sq = float(p @ p)
    return float(min(1.0, max(0.0, p_sq / (1.0 - p_sq) * (v_sq_sum - cross_sq) / cross_sq)))


def block_sample(n, d, seed, censor=0.3):
    """Three correlated blocks, a constant and a rounded column, censored times;
    the covariates are a strided view of a wider table, as ``load_sample``
    gives them."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, 3)).repeat(-(-d // 3), axis=1)[:, :d]
    x = 0.6 * rng.standard_normal((n, d)) + 0.8 * factors
    x *= rng.lognormal(size=d)
    x[:, 1] = 3.25
    x[:, 2] = np.round(2 * x[:, 2] / x[:, 2].std()) / 2
    times = np.exp(rng.normal(size=n) + 0.5 * x[:, 0] / x[:, 0].std())
    events = (rng.random(n) > censor).astype(int)
    events[:3] = 1
    table = np.column_stack([times, events, x])
    return SurvivalSample.from_times(times, events, table[:, 2:])


# (n, d): d <= m and d > m for the m rows of positive weight; no width divides d
SHAPES = [(60, 23), (40, 131)]


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.fixture(params=SHAPES, ids=["d<=m", "d>m"])
def weighted(request):
    n, d = request.param
    sample = block_sample(n, d, seed=n + d)
    weights = cars.scoring_weights(sample).weights
    assert (weights == 0).any()
    m = int((weights > 0).sum())
    assert (d <= m) == (d == 23)
    return sample, weights


@pytest.mark.parametrize("cells", BUDGETS)
def test_covariate_summary_blocks(monkeypatch, weighted, cells):
    sample, weights = weighted
    monkeypatch.setattr(data, "BLOCK_CELLS", cells)
    for w in (weights, None):
        got = covariate_summary(sample.covariates, w)
        ref = summary_oneshot(sample.covariates, np.ones(sample.n) if w is None else w)
        assert bits(got.means, got.variances) == bits(*ref)
    assert got.degenerate[1] and got.degenerate.sum() == 1


@pytest.mark.parametrize("cells", BUDGETS)
def test_weighted_covariances_blocks(monkeypatch, weighted, cells):
    sample, weights = weighted
    summary = covariate_summary(sample.covariates, weights)
    mean_w = weighted_mean(sample, weights)
    monkeypatch.setattr(data, "BLOCK_CELLS", cells)
    got = weighted_covariances(sample, weights, mean_w, summary)
    ref = covariances_oneshot(sample, weights, mean_w, summary.means)
    assert bits(got) == bits(ref)


def test_weighted_rows_in_place(monkeypatch, weighted):
    """Every panel of a has the one-shot bits, however the columns are cut."""
    sample, weights = weighted
    assert not sample.covariates.flags.c_contiguous
    for x in (sample.covariates, np.ascontiguousarray(sample.covariates)):
        for w in (weights, None):
            rows = shrinkage.WeightedRows.of(x, w)
            a, p = rows.panel(slice(None)), rows.p
            full = np.ones(sample.n) if w is None else w
            ref = weighted_rows_oneshot(x, full)
            assert bits(a, p) == bits(*ref)
            np.testing.assert_allclose(a, weighted_rows_own_moments(x, full), rtol=0, atol=1e-14)
            assert a.flags.c_contiguous and not np.signbit(a[:, 1]).any()
            assert np.shares_memory(rows.x, x)
            for width in (1, 7, 256):
                monkeypatch.setattr(shrinkage, "PANEL_COLUMNS", width)
                panels = [panel for _, panel in rows.panels()]
                assert bits(np.hstack(panels)) == bits(ref[0])
                assert all(panel.flags.c_contiguous for panel in panels)


@pytest.mark.parametrize("cells", BUDGETS)
def test_shrinkage_lambda_blocks(monkeypatch, weighted, cells):
    sample, weights = weighted
    rows = shrinkage.WeightedRows.of(sample.covariates, weights)
    a, p = weighted_rows_oneshot(sample.covariates, weights)
    ref = lambda_oneshot(a, p, rows.gram.matrix)
    assert 0.0 < ref < 1.0
    monkeypatch.setattr(data, "BLOCK_CELLS", cells)
    assert bits(shrinkage.shrinkage_lambda(rows)) == bits(ref)
    assert bits(shrinkage.shrinkage_lambda(sample.covariates, weights)) == bits(ref)


def test_whitener_and_cars_score_blocks(monkeypatch, weighted):
    sample, weights = weighted

    def outputs():
        wh, lam, min_eig = shrinkage.whitener_from_data(sample.covariates, None, weights)
        sv = cars.cars_score(sample)
        return bits(wh.background, wh.basis, wh.scales, wh.constant, lam, min_eig,
                    sv.scores, sv.diagnostics["shrinkage"], sv.diagnostics["min_eigenvalue"])

    monkeypatch.setattr(data, "BLOCK_CELLS", ONE_BLOCK)
    ref = outputs()
    for cells in BUDGETS:
        monkeypatch.setattr(data, "BLOCK_CELLS", cells)
        assert outputs() == ref


def held_arrays(obj):
    """The arrays an object holds in its attributes, tuples opened."""
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def test_d_above_m_basis_is_kept_factored(monkeypatch):
    """V = a'U mu^-1/2 for the one-shot weighted rows a, with orthonormal
    columns, in one panel and in several; the whitener holds the m x r basis
    and the ``WeightedRows``, which keep the covariates themselves and no
    array of a's size."""
    sample = block_sample(*SHAPES[1], seed=sum(SHAPES[1]))
    weights = cars.scoring_weights(sample).weights
    a, _ = weighted_rows_oneshot(sample.covariates, weights)
    m = a.shape[0]
    mu, u = np.linalg.eigh(a @ a.T)
    keep = mu > mu.max() * 1e-12
    ref = (a.T @ u[:, keep]) / np.sqrt(mu[keep])
    for width in (shrinkage.PANEL_COLUMNS, 16):
        monkeypatch.setattr(shrinkage, "PANEL_COLUMNS", width)
        wh, lam, _ = shrinkage.whitener_from_data(sample.covariates, None, weights)
        assert sample.d > m and lam < 1.0
        assert isinstance(wh.rows, shrinkage.WeightedRows) and wh.rows.x is sample.covariates
        assert all(arr.size < m * sample.d for arr in held_arrays(wh.rows) if arr is not wh.rows.x)
        assert wh.basis.shape[0] == m and wh.dim == sample.d
        v = wh.rows.tdot(wh.basis)
        # each eigenvector has a sign of its own: the panels sum the Gram in another order
        v *= np.sign((v * ref).sum(axis=0))
        np.testing.assert_allclose(v, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(keep.sum()), rtol=0, atol=1e-12)


@pytest.mark.parametrize("width", [1, 7, 50])
def test_panel_products_match_one_shot(monkeypatch, width):
    """With several panels (d > m) the Gram matrix, the products of
    ``tdot`` and the shrinkage weight equal those of a materialized a up to
    rounding, and none of them depends on ``data.BLOCK_CELLS``."""
    monkeypatch.setattr(shrinkage, "PANEL_COLUMNS", width)
    sample = block_sample(*SHAPES[1], seed=sum(SHAPES[1]))
    weights = cars.scoring_weights(sample).weights
    a, p = weighted_rows_oneshot(sample.covariates, weights)
    rng = np.random.default_rng(3)
    t, u = rng.standard_normal(len(p)), rng.standard_normal((len(p), 3))

    def products():
        rows = shrinkage.WeightedRows.of(sample.covariates, weights)
        r = 0.5 * rows.tdot(t)
        return [rows.gram.matrix, r, rows.tdot(u), rows.tdot(t), rows.constant,
                shrinkage.shrinkage_lambda(rows)]

    monkeypatch.setattr(data, "BLOCK_CELLS", ONE_BLOCK)
    got = products()
    r = 0.5 * (a.T @ t)
    for x, want in zip(got, [a @ a.T, r, a.T @ u, a.T @ t, ~a.any(axis=0)]):
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got[-1], lambda_oneshot(a, p, a @ a.T), rtol=1e-12)
    for cells in BUDGETS:
        monkeypatch.setattr(data, "BLOCK_CELLS", cells)
        assert bits(*products()) == bits(*got)


def cars_peak(n, d):
    """cars_score's traced peak above its inputs on a d > m sample, in
    multiples of m·d·8 bytes, with the covariates a view of the parsed table
    as the CLI has them."""
    sample = block_sample(n, d, seed=5)
    m = int((cars.scoring_weights(sample).weights > 0).sum())
    assert m < sample.d
    cars.cars_score(sample)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sv = cars.cars_score(sample)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sv.diagnostics["shrinkage"] < 1.0  # the basis is formed
    return peak / (m * sample.d * 8)


def test_cars_score_peak_memory():
    """At n=120, d=1500 cars_score's traced peak stays within 2.5 m·d·8 bytes:
    no array of a's size is made, and at this size the blocks of
    ``data.BLOCK_CELLS`` cells (about 1.8 m·d·8) are most of the peak."""
    ratio = cars_peak(120, 1500)
    assert ratio <= 2.5, ratio


def test_cars_score_peak_memory_wide():
    """At n=200, d=4000, where the blocks weigh little, the traced peak stays
    within 1.5 m·d·8 bytes: V = a'Q is kept factored, so no d x r basis is
    formed (one would add about 0.9 m·d·8)."""
    ratio = cars_peak(200, 4000)
    assert ratio <= 1.5, ratio


def test_cars_score_streams_the_weighted_rows():
    """At n=200, d=4000 the traced peak stays within 0.6 m·d·8 bytes (about
    0.45 is measured): the weighted rows a are never held whole, each product
    with them is taken over panels of ``shrinkage.PANEL_COLUMNS`` columns
    rebuilt from the covariates (holding a would add 1 m·d·8)."""
    ratio = cars_peak(200, 4000)
    assert ratio <= 0.6, ratio


@pytest.mark.parametrize("d, builds", [(150, 2), (6000, 24)])
def test_cars_score_makes_two_passes_over_the_rows(monkeypatch, d, builds):
    """n=500: one pass over a forms the Gram matrix and one more the
    whitened r, so a is built twice when d <= m and its 12 panels twice when
    d=6000 > m."""
    sample = block_sample(500, d, seed=d)
    m = int((cars.scoring_weights(sample).weights > 0).sum())
    assert (d <= m) == (d == 150)
    panel = shrinkage.WeightedRows.panel
    calls = []
    monkeypatch.setattr(shrinkage.WeightedRows, "panel", lambda rows, cols: calls.append(cols) or panel(rows, cols))
    sv = cars.cars_score(sample)
    assert sv.diagnostics["shrinkage"] < 1.0
    assert len(calls) == builds
