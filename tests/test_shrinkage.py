import numpy as np
import numpy.testing as npt
import pytest

from survscreen.shrinkage import (
    inverse_sqrt,
    sample_correlations,
    shrink,
    shrinkage_lambda,
    whitener_from_data,
)
from survscreen.errors import SingularMatrix


def pairwise_corr_oracle(x):
    n, d = x.shape
    out = np.eye(d)
    for j in range(d):
        for k in range(j + 1, d):
            a = x[:, j] - x[:, j].mean()
            b = x[:, k] - x[:, k].mean()
            denom = np.sqrt((a**2).sum() * (b**2).sum())
            out[j, k] = out[k, j] = (a * b).sum() / denom
    return out


def pairwise_lambda_oracle(x):
    """Direct double loop over covariate pairs."""
    n, d = x.shape
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    var_sum = 0.0
    r2_sum = 0.0
    for j in range(d):
        for k in range(d):
            if j == k:
                continue
            v = z[:, j] * z[:, k]
            vbar = v.mean()
            var_sum += n / (n - 1) ** 3 * ((v - vbar) ** 2).sum()
            r2_sum += (n / (n - 1) * vbar) ** 2
    return min(1.0, max(0.0, var_sum / r2_sum))


def test_sample_correlations_single_column():
    x = np.random.default_rng(0).standard_normal((10, 1))
    npt.assert_array_equal(sample_correlations(x), [[1.0]])


def test_sample_correlations_identical_columns():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(15)
    r = sample_correlations(np.column_stack([col, col]))
    npt.assert_allclose(r[0, 1], 1.0, rtol=1e-12)


def test_sample_correlations_zero_variance_column():
    rng = np.random.default_rng(2)
    x = np.column_stack([np.ones(12), rng.standard_normal(12)])
    r = sample_correlations(x)
    assert r[0, 0] == 1.0
    assert r[0, 1] == 0.0


def test_sample_correlations_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 4))
    npt.assert_allclose(sample_correlations(x), pairwise_corr_oracle(x), atol=1e-12)


def test_shrinkage_lambda_matches_pairwise_oracle():
    rng = np.random.default_rng(5)
    for n, d in ((15, 4), (8, 6), (30, 3)):
        x = rng.standard_normal((n, d))
        x[:, 0] = 0.6 * x[:, 1] + 0.8 * x[:, 0]
        got = shrinkage_lambda(x)
        npt.assert_allclose(got, pairwise_lambda_oracle(x), rtol=1e-10)


def test_shrinkage_lambda_zero_when_products_constant():
    # duplicated balanced binary column: standardized products are constant,
    # so the estimated correlation variance vanishes and lambda is 0
    col = np.array([0.0, 0.0, 1.0, 1.0])
    x = np.column_stack([col, col])
    assert shrinkage_lambda(x) <= 1e-15


def test_shrinkage_lambda_near_one_for_pure_noise():
    lams = []
    for rep in range(50):
        rng = np.random.default_rng(100 + rep)
        lams.append(shrinkage_lambda(rng.standard_normal((20, 50))))
    assert np.median(lams) >= 0.8


def test_shrinkage_lambda_vanishes_with_n():
    corr = np.full((5, 5), 0.5)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    medians = []
    for n in (100, 1000, 10000):
        lams = []
        for rep in range(50):
            rng = np.random.default_rng(2000 + rep)
            lams.append(shrinkage_lambda(rng.standard_normal((n, 5)) @ chol.T))
        medians.append(np.median(lams))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] <= 0.05


def test_shrink_endpoints():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 4))
    r = sample_correlations(x)
    npt.assert_array_equal(shrink(r, 1.0).matrix, np.eye(4))
    npt.assert_allclose(shrink(r, 0.0).matrix, r, rtol=1e-15)


def test_shrink_convex_combination():
    r = np.array([[1.0, 0.8], [0.8, 1.0]])
    out = shrink(r, 0.5).matrix
    npt.assert_allclose(out, [[1.0, 0.4], [0.4, 1.0]], rtol=1e-15)


def test_inverse_sqrt_identity():
    w = inverse_sqrt(shrink(np.eye(3), 0.0))
    npt.assert_allclose(w.to_matrix(), np.eye(3), atol=1e-14)


def test_inverse_sqrt_of_fully_shrunk_matrix_acts_as_identity():
    rng = np.random.default_rng(31)
    r = sample_correlations(rng.standard_normal((20, 5)))
    w = inverse_sqrt(shrink(r, 1.0))
    probe = rng.standard_normal(5)
    npt.assert_allclose(w.to_matrix() @ probe, probe, atol=1e-13)


def test_preconditions_raise():
    from survscreen.errors import TooFewRows

    rng = np.random.default_rng(37)
    with pytest.raises(TooFewRows):
        sample_correlations(rng.standard_normal((2, 3)))
    with pytest.raises(TooFewRows):
        shrinkage_lambda(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        shrinkage_lambda(rng.standard_normal((10, 1)))
    with pytest.raises(ValueError):
        shrink(np.eye(2), 1.5)


def test_inverse_sqrt_2x2_closed_form():
    # eigenvalues 1.5 and 0.5 of [[1, .5], [.5, 1]]
    m = inverse_sqrt(shrink(np.array([[1.0, 0.5], [0.5, 1.0]]), 0.0)).to_matrix()
    diag = (1.5**-0.5 + 0.5**-0.5) / 2
    off = (1.5**-0.5 - 0.5**-0.5) / 2
    npt.assert_allclose(m, [[diag, off], [off, diag]], rtol=1e-12)
    npt.assert_allclose(m[0, 0], 1.11536, atol=5e-6)
    npt.assert_allclose(m[0, 1], -0.29886, atol=5e-6)


def test_inverse_sqrt_self_consistency_on_probes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8))
    spd = a @ a.T / 8
    scale = np.sqrt(np.diag(spd))
    corr = spd / np.outer(scale, scale)
    shrunk = shrink(corr, 0.1)
    w = inverse_sqrt(shrunk).to_matrix()
    for _ in range(10):
        probe = rng.standard_normal(8)
        back = shrunk.matrix @ (w @ (w @ probe))
        npt.assert_allclose(back, probe, rtol=1e-8, atol=1e-8)


def test_inverse_sqrt_singular_raises():
    r = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        inverse_sqrt(shrink(r, 0.0))


def test_shrunk_eigenbasis_property():
    # shrinking maps eigenvalues mu -> lam + (1 - lam) mu in the same basis
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 5))
    r = sample_correlations(x)
    lam = 0.3
    mu, v = np.linalg.eigh(r)
    shrunk = shrink(r, lam).matrix
    npt.assert_allclose(shrunk @ v, v * (lam + (1 - lam) * mu), atol=1e-12)


def test_shrunk_min_eigenvalue_bound():
    rng = np.random.default_rng(17)
    for lam in (0.2, 0.5, 0.9):
        x = rng.standard_normal((10, 30))  # rank deficient, R_X still PSD
        r = sample_correlations(x)
        w = np.linalg.eigvalsh(shrink(r, lam).matrix)
        assert w.min() >= lam - 1e-10


def test_structured_path_matches_dense():
    rng = np.random.default_rng(19)
    for d in (12, 50):
        n = d // 2 + 2  # forces the d > n low-rank path
        x = rng.standard_normal((n, d))
        lam = 0.4
        structured, lam_s, _ = whitener_from_data(x, lam)
        assert structured.background == lam**-0.5 and structured.basis.shape[1] < d
        dense = inverse_sqrt(shrink(sample_correlations(x), lam))
        npt.assert_allclose(structured.to_matrix(), dense.to_matrix(), atol=1e-9)
        probe = rng.standard_normal(d)
        npt.assert_allclose(structured.to_matrix() @ probe, dense.to_matrix() @ probe, atol=1e-9)


def test_structured_path_requires_positive_shrinkage():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 10))
    with pytest.raises(SingularMatrix):
        whitener_from_data(x, 0.0)


def test_identity_shrinkage_is_exact_identity():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((6, 9))
    w, lam, min_eig = whitener_from_data(x, 1.0)
    npt.assert_array_equal(w.to_matrix(), np.eye(9))
    assert lam == 1.0 and min_eig == 1.0


@pytest.mark.parametrize("d", [1, 8])
def test_identity_whitener_forms_no_rows_and_is_exact(monkeypatch, d):
    # lam = 1 on the d <= m route, and a single covariate at any lam: an
    # empty basis with b = 1, so the product returns its argument bit for bit
    from survscreen import shrinkage

    x = np.random.default_rng(30).standard_normal((20, d))
    monkeypatch.setattr(shrinkage.WeightedRows, "of", None)  # no rows may be formed
    probe = np.random.default_rng(31).standard_normal(d)
    for lam, lam_used in ((1.0, 1.0),) + (((None, 0.0), (0.3, 0.3)) if d == 1 else ()):
        w, got_lam, min_eig = whitener_from_data(x, lam)
        assert w.basis.shape == (d, 0) and w.background == 1.0
        assert got_lam == lam_used and min_eig == 1.0
        npt.assert_array_equal(w.to_matrix() @ probe, probe)
        npt.assert_array_equal(w.to_matrix(), np.eye(d))


def weighted_lambda_oracle(x, w):
    """Double loop over pairs of the weighted estimator with shares p."""
    keep = w > 0
    x, w = x[keep], w[keep]
    p = w / w.sum()
    xc = x - p @ x
    u = xc / np.sqrt(p @ xc**2)
    d = x.shape[1]
    num = den = 0.0
    for j in range(d):
        for k in range(d):
            if j == k:
                continue
            v = u[:, j] * u[:, k]
            r = p @ v
            num += p @ (v - r) ** 2
            den += r**2
    h = (p @ p) / (1 - p @ p)
    return min(1.0, max(0.0, h * num / den))


def weighted_corr_oracle(x, w):
    cov = np.cov(x, rowvar=False, aweights=w)
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)


def test_weighted_lambda_matches_pairwise_oracle():
    # each shape also runs with unit weights, given as ones and as None
    rng = np.random.default_rng(41)
    for n, d in ((20, 4), (12, 9), (40, 3)):
        x = rng.standard_normal((n, d))
        x[:, 0] = 0.6 * x[:, 1] + 0.8 * x[:, 0]
        w = rng.uniform(0.5, 3.0, size=n) * (rng.uniform(size=n) > 0.3)
        for weights, given in ((w, w), (np.ones(n), np.ones(n)), (np.ones(n), None)):
            npt.assert_allclose(
                shrinkage_lambda(x, given), weighted_lambda_oracle(x, weights), rtol=1e-10
            )


def test_weighted_whitener_inverts_weighted_correlation():
    # both routes (dense when d <= rows of positive weight, thin Gram
    # otherwise) give the inverse square root of lam I + (1 - lam) R_w;
    # each shape also runs with unit weights, given as ones and as None
    rng = np.random.default_rng(47)
    for n, d in ((40, 6), (24, 30)):
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) / np.sqrt(d)
        w = rng.uniform(0.2, 2.0, size=n) * (rng.uniform(size=n) > 0.25)
        for weights, given in ((w, w), (np.ones(n), np.ones(n)), (np.ones(n), None)):
            white, lam, _ = whitener_from_data(x, 0.3, given)
            thin = d > np.count_nonzero(weights)
            assert white.background == (0.3**-0.5 if thin else 0.0)
            assert (white.basis.shape[1] < d) == thin
            dense = inverse_sqrt(shrink(weighted_corr_oracle(x, weights), 0.3))
            npt.assert_allclose(white.to_matrix(), dense.to_matrix(), atol=1e-9)


def test_zero_weight_rows_drop_out():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((30, 5))
    w = rng.uniform(0.5, 2.0, size=30)
    w[::3] = 0.0
    keep = w > 0
    npt.assert_allclose(shrinkage_lambda(x, w), shrinkage_lambda(x[keep], w[keep]), rtol=1e-12)
    a, _, _ = whitener_from_data(x, None, w)
    b, _, _ = whitener_from_data(x[keep], None, w[keep])
    npt.assert_allclose(a.to_matrix(), b.to_matrix(), atol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_dense_whitener_takes_min_eigenvalue_from_its_one_eigh(weighted):
    from survscreen.shrinkage import WeightedRows

    rng = np.random.default_rng(59)
    for n, d in ((40, 6), (25, 25), (60, 12)):
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) / np.sqrt(d)
        if weighted:
            w = rng.uniform(0.2, 2.0, size=n)
            a = WeightedRows.of(x, w).panel(slice(None))
            corr = a.T @ a
            corr = (corr + corr.T) / 2
            np.fill_diagonal(corr, 1.0)
        else:
            w = None
            corr = sample_correlations(x)
        white, lam, min_eig = whitener_from_data(x, None, w)
        assert white.background == 0.0 and white.basis.shape == (d, d)
        # the eigenvectors of R against the independent eigh of the shrunk matrix
        shrunk = shrink(corr, lam)
        npt.assert_allclose(white.to_matrix(), inverse_sqrt(shrunk).to_matrix(), rtol=0, atol=1e-12)
        npt.assert_allclose(min_eig, np.linalg.eigvalsh(shrunk.matrix).min(), rtol=0, atol=1e-12)

        white, lam, min_eig = whitener_from_data(x, 1.0, w)
        npt.assert_array_equal(white.matrix, np.eye(d))
        assert lam == 1.0 and min_eig == 1.0


def thin_whitener_cases():
    """(x, 0/1 weights or None, rank of the centred rows that carry weight), all with d > m."""
    rng = np.random.default_rng(61)
    x = rng.standard_normal((14, 40)) @ rng.standard_normal((40, 40)) / np.sqrt(40)
    duplicated = x.copy()
    duplicated[[5, 9, 11]] = duplicated[[0, 1, 0]]
    constant = x.copy()
    constant[:, 3] = 2.5
    w = np.ones(14)
    w[[2, 6, 7]] = 0.0
    return {
        "duplicated-rows": (duplicated, None, 14 - 3 - 1),
        "constant-column": (constant, None, 14 - 1),
        "zero-weight-rows": (x, w, 14 - 3 - 1),
    }


@pytest.mark.parametrize("case", ["duplicated-rows", "constant-column", "zero-weight-rows"])
def test_thin_whitener_matches_dense_inverse_sqrt(case):
    x, w, rank = thin_whitener_cases()[case]
    white, lam, min_eig = whitener_from_data(x, None, w)
    assert white.background == lam**-0.5 and white.basis.shape[1] == rank
    assert min_eig == lam
    rows = x if w is None else x[w > 0]
    dense = inverse_sqrt(shrink(sample_correlations(rows), lam)).matrix
    # a constant column keeps the identity's row and column on both routes
    constant = np.flatnonzero((rows == rows[0]).all(axis=0))
    npt.assert_array_equal(white.to_matrix()[constant, constant], 1.0)
    npt.assert_allclose(white.to_matrix(), dense, atol=1e-9)
    probe = np.random.default_rng(67).standard_normal(x.shape[1])
    npt.assert_allclose(white.to_matrix() @ probe, dense @ probe, atol=1e-9)


@pytest.mark.parametrize("n, d", [(40, 6), (25, 25), (14, 40)])
@pytest.mark.parametrize("weighted", [False, True])
def test_whitener_lambda_from_shared_gram_is_shrinkage_lambda(n, d, weighted):
    rng = np.random.default_rng(71)
    x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) / np.sqrt(d)
    w = rng.uniform(0.2, 2.0, size=n) * (rng.uniform(size=n) > 0.2) if weighted else None
    _, lam, _ = whitener_from_data(x, None, w)
    assert lam == shrinkage_lambda(x, w)


@pytest.mark.parametrize("d", [6, 40])
def test_cars_score_standardizes_the_rows_once(monkeypatch, d):
    # one moment pass, then one pass over the weighted rows a for the Gram
    # matrix and lam and one for the whitened r, on either route
    from survscreen import SurvivalSample, cars_score
    from survscreen import data, shrinkage

    rng = np.random.default_rng(73)
    n = 20
    x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
    events = (rng.uniform(size=n) > 0.3).astype(int)
    sample = SurvivalSample.from_times(rng.lognormal(size=n), events, x)
    calls, passes = [], []
    summary = data.covariate_summary
    monkeypatch.setattr(data, "covariate_summary", lambda *a: calls.append(1) or summary(*a))
    panels = shrinkage.WeightedRows.panels
    monkeypatch.setattr(shrinkage.WeightedRows, "panels", lambda rows: passes.append(1) or panels(rows))
    scores = cars_score(sample)
    assert 0 < scores.diagnostics["shrinkage"] < 1
    assert len(calls) == 1
    assert len(passes) == 2  # d > m when d > n


@pytest.mark.parametrize("weighted", [False, True])
def test_constant_columns_are_the_all_zero_columns_of_a(weighted):
    # ``constant`` is set from the scales, and it flags exactly the columns
    # that the panels zero, over column scales from 1e-150 to 1e150, exactly
    # constant columns and columns constant only on the rows of weight > 0
    from survscreen.shrinkage import WeightedRows

    rng = np.random.default_rng(79)
    for _ in range(60):
        n, d = rng.integers(4, 12), rng.integers(2, 10)
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, size=d)
        x[:, rng.uniform(size=d) < 0.3] = rng.choice([0.0, 2.5, -1e150, 3e-150])
        w = None
        if weighted:
            w = rng.uniform(0.2, 2.0, size=n)
            w[rng.permutation(n)[: n // 3]] = 0.0
            x[w > 0, rng.integers(d)] = -4.0  # varies only on rows that drop out
        rows = WeightedRows.of(x, w)
        assert rows.constant.dtype == bool and rows.constant.shape == (d,)
        npt.assert_array_equal(rows.constant, ~rows.panel(slice(None)).any(axis=0))
