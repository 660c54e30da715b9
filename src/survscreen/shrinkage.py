"""Shrinkage estimation of the covariate correlation matrix and its inverse
square root.

The estimator is the convex combination lam * I + (1 - lam) * R with R the
sample correlation matrix and lam the ratio of the summed estimated
variances of the sample correlations to their summed squares (the
Ledoit-Wolf-style plug-in for correlations).  For d > n the inverse square
root is never formed as a dense d x d eigenproblem; it is applied through
the thin SVD of the standardized data, which costs O(n^2 d).  Given row
weights, R and lam are those of the weighted distribution, and only rows
of positive weight count towards n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, TooFewRows

#: eigenvalues at or below this make the shrunk matrix effectively singular
MIN_EIGENVALUE = 1e-10


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and scale columns; constant columns become all-zero."""
    x = np.asarray(x, dtype=float)
    means = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    sd[(x == x[0]).all(axis=0)] = 0.0  # kill mean round-off in constant columns
    z = x - means
    ok = sd > 0
    z[:, ok] /= sd[ok]
    z[:, ~ok] = 0.0
    return z, sd


def _weighted_rows(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows a with a'a the weighted correlation matrix, and their shares p.

    Only rows of positive weight are kept; their shares are
    p_i = w_i / sum(w).  Row i is sqrt(p_i) u_i, where u standardizes the
    covariates by their weighted means and weighted variances, so a'a is
    the correlation matrix of the weighted distribution (constant columns
    are all-zero).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    carried = weights > 0
    if carried.sum() < 3:
        raise TooFewRows(f"need at least 3 rows of positive weight, got {carried.sum()}")
    x = x[carried]
    p = weights[carried] / weights[carried].sum()
    z = x - p @ x
    var = p @ z**2
    ok = (var > 0) & ~(x == x[0]).all(axis=0)
    z[:, ok] *= 1.0 / np.sqrt(var[ok])
    z[:, ~ok] = 0.0
    z *= np.sqrt(p)[:, None]
    return z, p


def sample_correlations(covariates: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the columns.

    Zero-variance columns get correlation 0 off the diagonal and 1 on it.
    """
    x = np.asarray(covariates, dtype=float)
    n = x.shape[0]
    if n < 3:
        raise TooFewRows(f"need at least 3 rows for correlations, got {n}")
    z, _ = _standardize(x)
    r = z.T @ z / (n - 1)
    r = (r + r.T) / 2
    np.fill_diagonal(r, 1.0)
    return r


def shrinkage_lambda(covariates: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Data-driven shrinkage weight in [0, 1].

    lam = sum_{j != k} Var-hat(r_jk) / sum_{j != k} r_jk^2, with the
    variance of each sample correlation estimated from the per-observation
    products of standardized residuals:

        Var-hat(r_jk) = n / (n-1)^3 * sum_i (v_ijk - vbar_jk)^2,
        v_ijk = z_ij * z_ik.

    Both sums are evaluated through Gram-matrix identities, so the cost is
    O(n^2 d) when d > n and O(n d^2) otherwise; no d x d pair loop is run.
    An all-zero denominator (no off-diagonal correlation at all) yields
    lam = 1 by convention.

    With ``weights`` the same estimator runs on the weighted distribution
    (rows of weight 0 drop out), as in Schaefer & Strimmer's weighted form:
    with shares p_i = w_i / sum(w), u the weighted-standardized data and
    v_ijk = u_ij * u_ik,

        lam = h * sum_{j != k} sum_i p_i (v_ijk - r_jk)^2 / sum_{j != k} r_jk^2,
        h = sum(p^2) / (1 - sum(p^2)),

    where r_jk = sum_i p_i v_ijk is the weighted correlation and h is
    1 / (n_eff - 1) for the Kish effective sample size n_eff = 1 / sum(p^2).
    Unit weights give the unweighted estimator exactly.
    """
    x = np.asarray(covariates, dtype=float)
    n, d = x.shape
    if d < 2:
        raise ValueError("shrinkage weight needs at least 2 covariates")
    if weights is not None and not np.all(weights == 1.0):
        return _weighted_lambda(*_weighted_rows(x, weights))
    if n < 3:
        raise TooFewRows(f"need at least 3 rows, got {n}")
    z, _ = _standardize(x)

    # sum_{j!=k} sum_i v_ijk^2 = sum_i [ (sum_j z_ij^2)^2 - sum_j z_ij^4 ]
    row_sq = (z**2).sum(axis=1)
    v_sq_sum = float((row_sq**2).sum() - (z**4).sum())

    # sum_{j!=k} (sum_i v_ijk)^2 = ||Z'Z||_F^2 - sum_j (Z'Z)_jj^2
    col_sq = (z**2).sum(axis=0)
    gram = z.T @ z if d <= n else z @ z.T
    cross_sq = float((gram * gram).sum() - (col_sq**2).sum())
    if cross_sq <= 0:
        return 1.0

    var_sum = n / (n - 1) ** 3 * (v_sq_sum - cross_sq / n)
    r_sq_sum = cross_sq / (n - 1) ** 2
    return float(min(1.0, max(0.0, var_sum / r_sq_sum)))


def _weighted_lambda(a: np.ndarray, p: np.ndarray) -> float:
    """Weighted shrinkage weight from the rows of ``_weighted_rows``.

    With a_i = sqrt(p_i) u_i the Gram identities of the unweighted case
    carry over: sum_{j!=k} sum_i p_i v_ijk^2 = sum_i [(sum_j a_ij^2)^2 -
    sum_j a_ij^4] / p_i and sum_{j!=k} r_jk^2 = ||a'a||_F^2 - sum_j (a'a)_jj^2.
    """
    m, d = a.shape
    sq = a**2
    v_sq_sum = float(((sq.sum(axis=1) ** 2 - (sq**2).sum(axis=1)) / p).sum())
    col_sq = sq.sum(axis=0)
    gram = a.T @ a if d <= m else a @ a.T
    cross_sq = float((gram * gram).sum() - (col_sq**2).sum())
    if cross_sq <= 0:
        return 1.0
    p_sq = float(p @ p)
    lam = p_sq / (1.0 - p_sq) * (v_sq_sum - cross_sq) / cross_sq
    return float(min(1.0, max(0.0, lam)))


@dataclass
class ShrinkageCorrelation:
    """Shrunk correlation matrix lam * I + (1 - lam) * R with unit diagonal."""

    matrix: np.ndarray
    shrinkage: float


@dataclass
class InverseSqrtCorrelation:
    """Inverse square root of a shrunk correlation matrix.

    Held either densely (``matrix``) or, for d > n, as the low-rank
    factorisation lam^-1/2 * I + V (f(mu) - lam^-1/2) V' where V spans the
    nonzero sample-correlation eigendirections and f(mu) =
    (lam + (1 - lam) mu)^-1/2.
    """

    dim: int
    matrix: np.ndarray | None = None
    shrinkage: float | None = None
    basis: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the inverse square root."""
        vec = np.asarray(vec, dtype=float)
        if self.matrix is not None:
            return self.matrix @ vec
        lam = self.shrinkage
        background = lam**-0.5
        f = (lam + (1.0 - lam) * self.eigenvalues) ** -0.5
        proj = self.basis.T @ vec
        return background * vec + self.basis @ ((f - background) * proj)

    def to_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        lam = self.shrinkage
        background = lam**-0.5
        f = (lam + (1.0 - lam) * self.eigenvalues) ** -0.5
        m = (self.basis * (f - background)) @ self.basis.T
        m[np.diag_indices(self.dim)] += background
        return m


def shrink(corr: np.ndarray, lam: float) -> ShrinkageCorrelation:
    """Convex combination lam * I + (1 - lam) * corr, diagonal pinned to 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"shrinkage weight must be in [0, 1], got {lam}")
    corr = np.asarray(corr, dtype=float)
    out = (1.0 - lam) * corr
    np.fill_diagonal(out, 0.0)
    out += lam * np.eye(corr.shape[0])
    np.fill_diagonal(out, 1.0)
    return ShrinkageCorrelation(out, lam)


def _dense_whitener(shrunk: ShrinkageCorrelation) -> tuple[InverseSqrtCorrelation, float, float]:
    """(inverse square root, shrinkage weight, smallest eigenvalue), from one eigh."""
    w, v = np.linalg.eigh(shrunk.matrix)
    if w.min() <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"smallest eigenvalue {w.min():.3e} <= {MIN_EIGENVALUE:g}"
        )
    m = (v * w**-0.5) @ v.T
    m = (m + m.T) / 2
    whitener = InverseSqrtCorrelation(dim=shrunk.matrix.shape[0], matrix=m)
    return whitener, shrunk.shrinkage, float(w.min())


def inverse_sqrt(shrunk: ShrinkageCorrelation) -> InverseSqrtCorrelation:
    """Dense symmetric inverse square root via eigendecomposition."""
    return _dense_whitener(shrunk)[0]


def whitener_from_data(
    covariates: np.ndarray,
    lam: float | None = None,
    weights: np.ndarray | None = None,
) -> tuple[InverseSqrtCorrelation, float, float]:
    """Inverse square root of the shrunk correlation, built from raw data.

    Returns (whitener, lam_used, min_eigenvalue).  For d <= n this goes
    through the dense correlation matrix; for d > n only the thin SVD of
    the standardized n x d data matrix is used, exploiting that the shrunk
    matrix is a scaled identity plus a rank <= n - 1 update.

    With ``weights`` the correlation matrix (and the estimated lam) is that
    of the weighted distribution, and n counts only the rows of positive
    weight.  Unit weights give the unweighted whitener exactly.
    """
    x = np.asarray(covariates, dtype=float)
    n, d = x.shape
    if weights is not None and np.all(weights == 1.0):
        weights = None
    if lam is None:
        lam = shrinkage_lambda(x, weights) if d >= 2 else 0.0
    if lam == 1.0:
        # exact identity whitening; avoids eigh round-off on I
        return InverseSqrtCorrelation(dim=d, matrix=np.eye(d)), 1.0, 1.0

    if weights is None:
        if d <= n:
            return _dense_whitener(shrink(sample_correlations(x), lam))
        z, _ = _standardize(x)
        _, s, vt = np.linalg.svd(z, full_matrices=False)
        mu = s**2 / (n - 1)
    else:
        a, _ = _weighted_rows(x, weights)
        n = a.shape[0]
        if d <= n:
            corr = a.T @ a
            corr = (corr + corr.T) / 2
            np.fill_diagonal(corr, 1.0)
            return _dense_whitener(shrink(corr, lam))
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        mu = s**2
    keep = mu > (mu.max() * 1e-12 if mu.max() > 0 else np.inf)
    min_eig = lam  # rank-deficient: the orthogonal complement sits at lam
    if min_eig <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"shrinkage weight {lam:.3e} too small for a rank-deficient "
            f"sample correlation (d={d} > n={n})"
        )
    return (
        InverseSqrtCorrelation(
            dim=d,
            shrinkage=lam,
            basis=vt[keep].T,
            eigenvalues=mu[keep],
        ),
        lam,
        min_eig,
    )
