"""Shrinkage estimation of the covariate correlation matrix and its inverse
square root.

The estimator is the convex combination lam * I + (1 - lam) * R with R the
correlation matrix of a weighted distribution over the rows and lam the
ratio of the summed estimated variances of the correlations to their
summed squares (the Ledoit-Wolf-style plug-in of Schaefer & Strimmer).
Every function takes R and lam from one set of rows: each row of positive
weight w_i enters with share w_i / sum(w), and rows of weight 0 drop out.
Without weights every row has weight 1, which is the plain sample
estimator.  The weighted standardized rows a (m x d, m the number of rows
of positive weight) and one Gram matrix of them are formed once per
whitener: a'a, the correlation matrix, when d <= m, and the m x m matrix
aa' when d > m.  In the second case the inverse square root is never
formed as a dense d x d eigenproblem; it is applied through the
eigendecomposition of aa', which costs O(m^2 d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, TooFewRows

#: eigenvalues at or below this make the shrunk matrix effectively singular
MIN_EIGENVALUE = 1e-10


def _weighted_rows(x: np.ndarray, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows a with a'a the weighted correlation matrix, and their shares p.

    Only rows of positive weight are kept; their shares are
    p_i = w_i / sum(w), and ``weights=None`` gives every row weight 1.
    Row i is sqrt(p_i) u_i, where u standardizes the covariates by their
    weighted means and weighted variances, so a'a is the correlation matrix
    of the weighted distribution (constant columns are all-zero).
    """
    x = np.asarray(x, dtype=float)
    weights = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=float)
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


@dataclass
class _GramRows:
    """``_weighted_rows`` of the covariates with their one Gram matrix:
    a'a when d <= m, aa' when d > m, for a of shape m x d."""

    a: np.ndarray
    p: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, weights: np.ndarray | None) -> _GramRows:
        a, p = _weighted_rows(x, weights)
        return cls(a, p, a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T)


def _unit_diagonal(gram: np.ndarray) -> np.ndarray:
    """The correlation matrix from the Gram a'a of ``_weighted_rows``: exactly
    symmetric, with unit diagonal."""
    corr = gram + gram.T
    corr /= 2
    np.fill_diagonal(corr, 1.0)
    return corr


def sample_correlations(covariates: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the columns (every row of weight 1).

    Zero-variance columns get correlation 0 off the diagonal and 1 on it.
    This is the matrix the dense route of ``whitener_from_data`` shrinks.
    """
    a, _ = _weighted_rows(covariates, None)
    return _unit_diagonal(a.T @ a)


def shrinkage_lambda(
    covariates: np.ndarray | _GramRows, weights: np.ndarray | None = None
) -> float:
    """Data-driven shrinkage weight in [0, 1], Schaefer & Strimmer's weighted form.

    With shares p_i = w_i / sum(w) over the rows of positive weight, u the
    weighted-standardized data and v_ijk = u_ij * u_ik,

        lam = h * sum_{j != k} sum_i p_i (v_ijk - r_jk)^2 / sum_{j != k} r_jk^2,
        h = sum(p^2) / (1 - sum(p^2)),

    where r_jk = sum_i p_i v_ijk is the weighted correlation and h is
    1 / (n_eff - 1) for the Kish effective sample size n_eff = 1 / sum(p^2).
    Without weights p_i = 1/n, and this is the plain estimator
    Var-hat(r_jk) = n / (n-1)^3 * sum_i (z_ij z_ik - mean_i z_ij z_ik)^2 of
    the n-1 divisor standardized data z.

    With a_i = sqrt(p_i) u_i (``_weighted_rows``) both sums are Gram
    identities: sum_{j!=k} sum_i p_i v_ijk^2 = sum_i [(sum_j a_ij^2)^2 -
    sum_j a_ij^4] / p_i and sum_{j!=k} r_jk^2 = ||a'a||_F^2 - sum_j (a'a)_jj^2,
    so the cost is O(m^2 d) when d > m rows carry weight and O(m d^2)
    otherwise; no d x d pair loop is run.  An all-zero denominator (no
    off-diagonal correlation at all) yields lam = 1 by convention.
    ``whitener_from_data`` passes its prepared rows in place of the
    covariates (and no weights), so they and their Gram are formed once.
    """
    rows = covariates
    if not isinstance(rows, _GramRows):
        x = np.asarray(covariates, dtype=float)
        if x.shape[1] < 2:
            raise ValueError("shrinkage weight needs at least 2 covariates")
        rows = _GramRows.of(x, weights)
    a, p = rows.a, rows.p
    sq = a**2
    v_sq_sum = float(((sq.sum(axis=1) ** 2 - (sq**2).sum(axis=1)) / p).sum())
    col_sq = sq.sum(axis=0)
    cross_sq = float((rows.gram * rows.gram).sum() - (col_sq**2).sum())
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

    Held either densely (``matrix``) or, for d above the number of rows of
    positive weight, as the low-rank factorisation
    lam^-1/2 * I + V (f(mu) - lam^-1/2) V' where V spans the nonzero
    sample-correlation eigendirections and f(mu) = (lam + (1 - lam) mu)^-1/2.
    A column that is constant over those rows (a zero row of V) has
    correlation 0 with every other column and 1 with itself, so its row and
    column of the inverse square root are those of the identity.
    """

    dim: int
    matrix: np.ndarray | None = None
    shrinkage: float | None = None
    basis: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    constant: np.ndarray | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the inverse square root."""
        vec = np.asarray(vec, dtype=float)
        if self.matrix is not None:
            return self.matrix @ vec
        lam = self.shrinkage
        background = lam**-0.5
        f = (lam + (1.0 - lam) * self.eigenvalues) ** -0.5
        proj = self.basis.T @ vec
        out = background * vec + self.basis @ ((f - background) * proj)
        out[self.constant] = vec[self.constant]
        return out

    def to_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        lam = self.shrinkage
        background = lam**-0.5
        f = (lam + (1.0 - lam) * self.eigenvalues) ** -0.5
        m = (self.basis * (f - background)) @ self.basis.T
        m[np.diag_indices(self.dim)] += background
        m[self.constant, self.constant] = 1.0
        return m


def shrink(corr: np.ndarray, lam: float) -> ShrinkageCorrelation:
    """Convex combination lam * I + (1 - lam) * corr, diagonal pinned to 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"shrinkage weight must be in [0, 1], got {lam}")
    corr = np.asarray(corr, dtype=float)
    out = (1.0 - lam) * corr
    # the shrunk matrix holds no -0.0: adding +0.0 turns each into +0.0
    out += 0.0
    np.fill_diagonal(out, 1.0)
    return ShrinkageCorrelation(out, lam)


def _dense_whitener(shrunk: ShrinkageCorrelation) -> tuple[InverseSqrtCorrelation, float, float]:
    """(inverse square root, shrinkage weight, smallest eigenvalue), from one eigh."""
    w, v = np.linalg.eigh(shrunk.matrix)
    if w.min() <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"smallest eigenvalue {w.min():.3e} <= {MIN_EIGENVALUE:g}"
        )
    scaled = v * w**-0.5
    m = scaled @ v.T
    m = np.add(m, m.T, out=scaled)  # symmetrize into the spent buffer
    m /= 2
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

    Returns (whitener, lam_used, min_eigenvalue).  The correlation matrix
    and the estimated lam are those of the weighted distribution over the
    m rows of positive weight (every row, with weight 1, when ``weights``
    is None); both come from one ``_GramRows``.  For d <= m this goes
    through the dense correlation matrix; for d > m only the
    eigendecomposition aa' = U diag(mu) U' of the m x m Gram matrix is
    used, exploiting that the shrunk matrix is a scaled identity plus a
    rank <= m - 1 update along the directions a'U mu^-1/2.
    """
    x = np.asarray(covariates, dtype=float)
    d = x.shape[1]
    rows = None if lam == 1.0 else _GramRows.of(x, weights)
    if lam is None:
        lam = shrinkage_lambda(rows) if d >= 2 else 0.0
    if lam == 1.0:
        # exact identity whitening; avoids eigh round-off on I
        return InverseSqrtCorrelation(dim=d, matrix=np.eye(d)), 1.0, 1.0

    m = rows.a.shape[0]
    if d <= m:
        shrunk = shrink(_unit_diagonal(rows.gram), lam)
        del rows  # freed before eigh takes its workspace: a lower peak heap, fewer page faults
        return _dense_whitener(shrunk)
    min_eig = lam  # rank-deficient: the orthogonal complement sits at lam
    if min_eig <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"shrinkage weight {lam:.3e} too small for a rank-deficient "
            f"sample correlation (d={d} > n={m})"
        )
    mu, u = np.linalg.eigh(rows.gram)
    keep = mu > (mu.max() * 1e-12 if mu.max() > 0 else np.inf)
    mu = mu[keep]
    return (
        InverseSqrtCorrelation(
            dim=d,
            shrinkage=lam,
            basis=(rows.a.T @ u[:, keep]) / np.sqrt(mu),
            eigenvalues=mu,
            constant=~rows.a.any(axis=0),
        ),
        lam,
        min_eig,
    )
