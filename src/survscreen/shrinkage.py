"""Shrinkage estimation of the covariate correlation matrix and its inverse
square root.

The estimator is the convex combination lam * I + (1 - lam) * R with R the
correlation matrix of a weighted distribution over the rows and lam the
ratio of the summed estimated variances of the correlations to their
summed squares (the Ledoit-Wolf-style plug-in of Schaefer & Strimmer).
Every function takes R and lam from one set of rows: each row of positive
weight w_i enters with share w_i / sum(w), and rows of weight 0 drop out.
Without weights every row has weight 1, which is the plain sample
estimator.  The weighted standardized rows a (``WeightedRows``, m x d, m
the number of rows of positive weight, standardized by the moments of
``data.covariate_summary``) and one Gram matrix of them, shared by lam and
the whitener, are formed once: a'a, the correlation matrix, when d <= m,
and the m x m matrix aa' when d > m.  Shrinking maps each eigenvalue mu of
R to lam + (1 - lam) mu in the same eigendirection, so the inverse square
root has one form on both routes, b I + V diag(g - b) V' with
g = (lam + (1 - lam) mu)^-1/2: V holds every eigenvector of R and b = 0
when d <= m; V holds the nonzero directions a'Q, Q = U mu^-1/2, of
aa' = U diag(mu) U' and b = lam^-1/2 when d > m.  On that route V is kept
factored: the whitener holds Q (m x r) and a reference to the rows a, so
the only arrays of the sample's size are the sample and a, and applying
it is two passes over a.  Scoring never forms a d x d inverse square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import data
from .errors import SingularMatrix, TooFewRows

#: eigenvalues at or below this make the shrunk matrix effectively singular
MIN_EIGENVALUE = 1e-10


def _weighted_rows(x: np.ndarray, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows a with a'a the weighted correlation matrix, and their shares p.

    Only rows of positive weight are kept; their shares are
    p_i = w_i / sum(w), and ``weights=None`` gives every row weight 1;
    the weights must sum to more than 1, as ``data.covariate_summary``
    needs.  Row i is sqrt(p_i) u_i, where u standardizes the covariates by the
    weighted means and variances of ``data.covariate_summary``, the latter
    times (sum(w) - 1) / sum(w) for the divisor sum(w), so a'a is the
    correlation matrix of the weighted distribution (constant columns are
    all-zero).  The carried rows are copied once and worked on in place.
    """
    x = np.asarray(x, dtype=float)
    weights = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    summary = data.covariate_summary(x, weights)
    carried = np.flatnonzero(weights > 0)
    total = float(weights[carried].sum())
    p = weights[carried] / total
    var = summary.variances * ((total - 1.0) / total)
    ok = var > 0  # constant columns have variance exactly 0
    scale = np.zeros(var.shape)
    scale[ok] = 1.0 / np.sqrt(var[ok])
    z = x[carried]
    z -= summary.means
    z[:, ~ok] = 0.0  # +0.0 times 0 stays +0.0, as a negative entry times 0 would not
    z *= scale
    z *= np.sqrt(p)[:, None]
    return z, p


@dataclass
class WeightedRows:
    """``_weighted_rows`` of the covariates (a, m x d) with their shares p.

    ``gram`` is their one Gram matrix, a'a when d <= m and aa' when d > m,
    formed on first use: only the shrinkage weight and the whitener use it,
    and they need at least 3 rows of positive weight.  ``constant`` flags
    the columns that are constant over those rows, the all-zero columns.
    """

    a: np.ndarray
    p: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, weights: np.ndarray | None = None) -> WeightedRows:
        return cls(*_weighted_rows(x, weights))

    @cached_property
    def gram(self) -> np.ndarray:
        m, d = self.a.shape
        _need_three_rows(m)
        return self.a.T @ self.a if d <= m else self.a @ self.a.T

    @cached_property
    def constant(self) -> np.ndarray:
        return ~self.a.any(axis=0)


def _need_three_rows(m: int) -> None:
    if m < 3:
        raise TooFewRows(f"need at least 3 rows of positive weight, got {m}")


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
    This is the matrix whose eigenvectors the d <= m route of
    ``whitener_from_data`` keeps.
    """
    a, _ = _weighted_rows(covariates, None)
    _need_three_rows(len(a))
    return _unit_diagonal(a.T @ a)


def shrinkage_lambda(
    covariates: np.ndarray | WeightedRows, weights: np.ndarray | None = None
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
    otherwise; no d x d pair loop is run.  The squares of a are formed in
    blocks of rows of about ``data.BLOCK_CELLS`` cells, never all at once,
    with the same bits as one m x d array.  An all-zero denominator (no
    off-diagonal correlation at all) yields lam = 1 by convention.
    ``whitener_from_data`` passes its prepared ``WeightedRows`` in place of
    the covariates (and no weights), so they and their Gram are formed once.
    """
    rows = covariates
    if not isinstance(rows, WeightedRows):
        x = np.asarray(covariates, dtype=float)
        if x.shape[1] < 2:
            raise ValueError("shrinkage weight needs at least 2 covariates")
        rows = WeightedRows.of(x, weights)
    a, p = rows.a, rows.p
    m, d = a.shape
    step = data.block_length(d)
    # row 0 of the buffer carries the column sums of the squares so far and
    # the squares of the next block of rows follow it: numpy adds the rows of
    # an axis-0 sum in order, so the sums are those of one m x d array
    buf = np.zeros((min(step, m) + 1, d))
    row_sq, row_quad = np.empty((2, m))
    for lo in range(0, m, step):
        block = a[lo : lo + step]
        sq = np.square(block, out=buf[1 : 1 + len(block)])
        row_sq[lo : lo + len(sq)] = sq.sum(axis=1)
        row_quad[lo : lo + len(sq)] = (sq**2).sum(axis=1)
        buf[0] = buf[: 1 + len(sq)].sum(axis=0)
    v_sq_sum = float(((row_sq**2 - row_quad) / p).sum())
    col_sq = buf[0]
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


@dataclass(frozen=True)
class InverseSqrtCorrelation:
    """Inverse square root of a shrunk correlation matrix, in spectral form

        W = b I + V diag(g - b) V',

    V a d x r matrix of orthonormal eigendirections, g their inverse square
    root eigenvalues and b the one of the orthogonal complement.  V is
    ``basis`` itself, or ``rows' basis`` when ``rows`` (k x d) is set: then
    ``basis`` is k x r and V is never formed.  A column that is constant
    over the rows (``constant``) has correlation 0 with every other column
    and 1 with itself, so its row and column of W are those of the
    identity.  An empty V with b = 1 is the exact identity.
    """

    background: float
    basis: np.ndarray
    scales: np.ndarray
    constant: np.ndarray
    rows: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.constant)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d form (``to_matrix``)."""
        return self.to_matrix()

    def _directions(self, y: np.ndarray) -> np.ndarray:
        """V y."""
        return self.basis @ y if self.rows is None else self.rows.T @ (self.basis @ y)

    def _coordinates(self, vec: np.ndarray) -> np.ndarray:
        """V' vec."""
        return self.basis.T @ vec if self.rows is None else self.basis.T @ (self.rows @ vec)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the inverse square root."""
        vec = np.asarray(vec, dtype=float)
        b = self.background
        out = b * vec + self._directions((self.scales - b) * self._coordinates(vec))
        out[self.constant] = vec[self.constant]
        return out

    def to_matrix(self) -> np.ndarray:
        v = self._directions(np.eye(len(self.scales)))
        m = (v * (self.scales - self.background)) @ v.T
        m[np.diag_indices(self.dim)] += self.background
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


def inverse_sqrt(shrunk: ShrinkageCorrelation) -> InverseSqrtCorrelation:
    """Inverse square root of a shrunk matrix from its own eigendecomposition.

    The dense reference for ``whitener_from_data``: every eigendirection is
    kept and b = 0.
    """
    w, v = np.linalg.eigh(shrunk.matrix)
    if w.min() <= MIN_EIGENVALUE:
        raise SingularMatrix(f"smallest eigenvalue {w.min():.3e} <= {MIN_EIGENVALUE:g}")
    return InverseSqrtCorrelation(0.0, v, w**-0.5, np.zeros(len(w), dtype=bool))


def whitener_from_data(
    covariates: np.ndarray | WeightedRows,
    lam: float | None = None,
    weights: np.ndarray | None = None,
) -> tuple[InverseSqrtCorrelation, float, float]:
    """Inverse square root of the shrunk correlation, built from raw data or
    from prepared rows.

    Returns (whitener, lam_used, min_eigenvalue).  R and the estimated lam
    are those of the weighted distribution over the m rows of positive
    weight (every row, with weight 1, when ``weights`` is None), both from
    one ``WeightedRows``: the one given in place of the covariates (then
    ``weights`` is ignored), or one formed here.  The module docstring
    gives the two routes.  With lam = 1 or fewer than 2 covariates the
    whitener is the exact identity, an empty V with b = 1, and neither rows
    nor a Gram matrix are formed (lam_used is 0 when a single covariate
    leaves it unestimated).
    """
    given = isinstance(covariates, WeightedRows)
    x = covariates.a if given else np.asarray(covariates, dtype=float)
    d = x.shape[1]
    if d >= 2 and lam != 1.0:
        rows = covariates if given else WeightedRows.of(x, weights)
        if lam is None:
            lam = shrinkage_lambda(rows)
    if d < 2 or lam == 1.0:
        identity = InverseSqrtCorrelation(1.0, np.empty((d, 0)), np.empty(0), np.zeros(d, dtype=bool))
        return identity, (0.0 if lam is None else lam), 1.0

    constant = rows.constant
    dense = d <= rows.a.shape[0]
    if dense:
        corr = _unit_diagonal(rows.gram)
        mu, basis = np.linalg.eigh(corr)
        min_eig = lam + (1.0 - lam) * mu.min()
        factor = None
    else:
        mu, u = np.linalg.eigh(rows.gram)
        keep = mu > (mu.max() * 1e-12 if mu.max() > 0 else np.inf)
        mu = mu[keep]
        basis = u[:, keep] / np.sqrt(mu)
        factor = rows.a  # V = a'basis is kept factored, never formed
        min_eig = lam  # rank-deficient: the orthogonal complement sits at lam
    if min_eig <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"smallest eigenvalue {min_eig:.3e} of the shrunk correlation <= "
            f"{MIN_EIGENVALUE:g} (shrinkage weight {lam:.3e}, d={d})"
        )
    background = 0.0 if dense else lam**-0.5
    scales = (lam + (1.0 - lam) * mu) ** -0.5
    return InverseSqrtCorrelation(background, basis, scales, constant, factor), lam, float(min_eig)
