"""Shrinkage estimation of the covariate correlation matrix and its inverse
square root.

The estimator is the convex combination lam * I + (1 - lam) * R with R the
correlation matrix of a weighted distribution over the rows and lam the
ratio of the summed estimated variances of the correlations to their
summed squares (the Ledoit-Wolf-style plug-in of Schaefer & Strimmer).
Every function takes R and lam from one set of rows: each row of positive
weight w_i enters with share w_i / sum(w), and rows of weight 0 drop out.
Without weights every row has weight 1, which is the plain sample
estimator.  Both need only products with the weighted standardized rows a
(``WeightedRows``, m x d, m the number of rows of positive weight,
standardized by the moments of ``data.covariate_summary``): one Gram matrix
of them, shared by lam and the whitener, a'a, the correlation matrix, when
d <= m, and the m x m matrix aa' when d > m.  Shrinking maps each eigenvalue
mu of R to lam + (1 - lam) mu in the same eigendirection, so the inverse
square root has one form on both routes, b I + V diag(g - b) V' with
g = (lam + (1 - lam) mu)^-1/2: V holds every eigenvector of R and b = 0
when d <= m; V holds the nonzero directions a'Q, Q = U mu^-1/2, of
aa' = U diag(mu) U' and b = lam^-1/2 when d > m.  On that route a is never
held: it is an elementwise function of the covariates, rebuilt in panels of
``PANEL_COLUMNS`` columns for each pass, and V is kept factored as Q (m x r)
and the rows.  One pass forms the Gram matrix and lam's sums of squares
(``WeightedRows.gram``, kept with the rows) and every product with a' is one
more, so the only array of the sample's size is the sample itself.  When
d <= m, a is formed whole, as one panel.  Scoring
(``cars.weighted_cars_score``) applies W to a'v from these eigenpairs and
never forms a d x d inverse square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import data
from .errors import SingularMatrix, TooFewRows

#: eigenvalues at or below this make the shrunk matrix effectively singular
MIN_EIGENVALUE = 1e-10


#: columns of a in one panel when d > m; a fixed count, so that no output
#: depends on ``data.BLOCK_CELLS``
PANEL_COLUMNS = 512


def _need_three_rows(m: int) -> None:
    if m < 3:
        raise TooFewRows(f"need at least 3 rows of positive weight, got {m}")


def _add_square_sums(a: np.ndarray, row_sq: np.ndarray, row_quad: np.ndarray, col_sq: np.ndarray) -> None:
    """Add the sums of the squares and of the fourth powers of each row of a
    to row_sq and row_quad, and write its column sums of squares to col_sq.

    The squares are formed in blocks of rows of about ``data.BLOCK_CELLS``
    cells, never all at once.  Row 0 of the buffer carries the column sums
    so far and the squares of the next block follow it: numpy adds the rows
    of an axis-0 sum in order, so every sum has the bits of one array.
    """
    m, k = a.shape
    step = data.block_length(k)
    buf = np.zeros((min(step, m) + 1, k))
    for lo in range(0, m, step):
        sq = np.square(a[lo : lo + step], out=buf[1 : 1 + min(step, m - lo)])
        row_sq[lo : lo + len(sq)] += sq.sum(axis=1)
        row_quad[lo : lo + len(sq)] += (sq**2).sum(axis=1)
        buf[0] = buf[: 1 + len(sq)].sum(axis=0)
    col_sq[...] = buf[0]


class Gram(NamedTuple):
    """The Gram matrix of a (a'a when d <= m, aa' when d > m) and the sums
    of squares of ``shrinkage_lambda``: per row of a the sums of its squares
    and of its fourth powers, per column the sums of its squares."""

    matrix: np.ndarray
    row_sq: np.ndarray
    row_quad: np.ndarray
    col_sq: np.ndarray


@dataclass(frozen=True)
class WeightedRows:
    """The weighted standardized rows a (m x d) of the covariates, with a'a
    their weighted correlation matrix, and the rows' shares p.

    Only the m rows of positive weight (``carried``) count; their shares
    are p_i = w_i / sum(w), and ``weights=None`` gives every row weight 1;
    the weights must sum to more than 1, as ``data.covariate_summary``
    needs.  Row i of a is sqrt(p_i) u_i, where u standardizes the
    covariates by the weighted means and variances of that one moment pass,
    the latter times (sum(w) - 1) / sum(w) for the divisor sum(w).
    ``scales`` holds the inverse standard deviations, 0 on the ``constant``
    columns, whose columns of a are all zero.

    a is never held.  ``panel`` builds any run of its columns from the
    covariates (kept as given, so a view of the parsed table stays one) by
    elementwise steps, so every entry has the same bits whatever the run.
    ``gram`` is one pass over a, formed once; ``tdot`` is the product a'y,
    one pass per call.
    """

    x: np.ndarray
    carried: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    p: np.ndarray
    root_p: np.ndarray
    constant: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, weights: np.ndarray | None = None) -> WeightedRows:
        x = np.asarray(x, dtype=float)
        weights = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=float)
        summary = data.covariate_summary(x, weights)
        carried = weights > 0
        total = float(weights[carried].sum())
        p = weights[carried] / total
        var = summary.variances * ((total - 1.0) / total)
        ok = var > 0  # constant columns have variance exactly 0
        scales = np.zeros(var.shape)
        scales[ok] = 1.0 / np.sqrt(var[ok])
        return cls(x, carried, summary.means, scales, p, np.sqrt(p), scales == 0)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.p), self.x.shape[1]

    def panel(self, cols: slice) -> np.ndarray:
        """Columns ``cols`` of a, as a new C-contiguous m x k array."""
        z = self.x[self.carried, cols]
        scales = self.scales[cols]
        z -= self.means[cols]
        z[:, scales == 0] = 0.0  # +0.0 times 0 stays +0.0, as a negative entry times 0 would not
        z *= scales
        z *= self.root_p[:, None]
        return z

    def panels(self):
        """(cols, ``panel(cols)``) over the columns in order: all of them in
        one panel when d <= m, ``PANEL_COLUMNS`` at a time when d > m."""
        m, d = self.shape
        width = max(d, 1) if d <= m else PANEL_COLUMNS
        for lo in range(0, d, width):
            cols = slice(lo, lo + width)
            yield cols, self.panel(cols)

    @cached_property
    def gram(self) -> Gram:
        """The ``Gram`` of a, in one pass over the panels; it needs at least 3 rows."""
        m, d = self.shape
        _need_three_rows(m)
        row_sq, row_quad = np.zeros((2, m))
        col_sq = np.empty(d)
        g = None
        for cols, a in self.panels():
            _add_square_sums(a, row_sq, row_quad, col_sq[cols])
            part = a.T @ a if d <= m else a @ a.T
            if g is None:
                g = part
            else:
                g += part
        return Gram(g, row_sq, row_quad, col_sq)

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """a'y for y of m entries or m x k, in one pass over the panels."""
        out = np.empty(self.shape[1:] + np.shape(y)[1:])
        for cols, a in self.panels():
            out[cols] = a.T @ y
        return out


def _unit_diagonal(gram: np.ndarray) -> np.ndarray:
    """The correlation matrix from the Gram a'a of ``WeightedRows``: exactly
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
    rows = WeightedRows.of(covariates)
    _need_three_rows(rows.shape[0])
    a = rows.panel(slice(None))
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

    With a_i = sqrt(p_i) u_i (``WeightedRows``) both sums are Gram
    identities: sum_{j!=k} sum_i p_i v_ijk^2 = sum_i [(sum_j a_ij^2)^2 -
    sum_j a_ij^4] / p_i and sum_{j!=k} r_jk^2 = ||a'a||_F^2 - sum_j (a'a)_jj^2,
    so the cost is O(m^2 d) when d > m rows carry weight and O(m d^2)
    otherwise; no d x d pair loop is run.  The sums of squares and the Gram
    matrix are the rows' ``gram``.  An all-zero denominator (no
    off-diagonal correlation at all) yields lam = 1 by convention.
    ``whitener_from_data`` and ``cars.weighted_cars_score`` pass their
    prepared ``WeightedRows`` in place of the covariates (and no weights),
    so that pass over a runs once.
    """
    rows = covariates
    if not isinstance(rows, WeightedRows):
        x = np.asarray(covariates, dtype=float)
        if x.shape[1] < 2:
            raise ValueError("shrinkage weight needs at least 2 covariates")
        rows = WeightedRows.of(x, weights)
    g, p = rows.gram, rows.p
    v_sq_sum = float(((g.row_sq**2 - g.row_quad) / p).sum())
    cross_sq = float((g.matrix * g.matrix).sum() - (g.col_sq**2).sum())
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
    ``basis`` itself, or a'basis when ``rows`` (the ``WeightedRows`` a,
    m x d) is set: then ``basis`` is m x r and only ``to_matrix`` forms V,
    in one pass over the panels of a.  A column that is constant
    over the rows (``constant``) has correlation 0 with every other column
    and 1 with itself, so its row and column of W are those of the
    identity.  An empty V with b = 1 is the exact identity.
    """

    background: float
    basis: np.ndarray
    scales: np.ndarray
    constant: np.ndarray
    rows: WeightedRows | None = None

    @property
    def dim(self) -> int:
        return len(self.constant)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d form (``to_matrix``)."""
        return self.to_matrix()

    def to_matrix(self) -> np.ndarray:
        v = self.basis if self.rows is None else self.rows.tdot(self.basis)
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
    x = covariates.x if given else np.asarray(covariates, dtype=float)
    d = x.shape[1]
    if d >= 2 and lam != 1.0:
        rows = covariates if given else WeightedRows.of(x, weights)
        if lam is None:
            lam = shrinkage_lambda(rows)
    if d < 2 or lam == 1.0:
        identity = InverseSqrtCorrelation(1.0, np.empty((d, 0)), np.empty(0), np.zeros(d, dtype=bool))
        return identity, (0.0 if lam is None else lam), 1.0

    gram = rows.gram.matrix
    dense = d <= rows.shape[0]
    if dense:
        corr = _unit_diagonal(gram)
        mu, basis = np.linalg.eigh(corr)
        min_eig = lam + (1.0 - lam) * mu.min()
        factor = None
    else:
        mu, u = np.linalg.eigh(gram)
        keep = mu > (mu.max() * 1e-12 if mu.max() > 0 else np.inf)
        mu = mu[keep]
        basis = u[:, keep] / np.sqrt(mu)
        factor = rows  # V = a'basis is kept factored, never formed
        min_eig = lam  # rank-deficient: the orthogonal complement sits at lam
    if min_eig <= MIN_EIGENVALUE:
        raise SingularMatrix(
            f"smallest eigenvalue {min_eig:.3e} of the shrunk correlation <= "
            f"{MIN_EIGENVALUE:g} (shrinkage weight {lam:.3e}, d={d})"
        )
    background = 0.0 if dense else lam**-0.5
    scales = (lam + (1.0 - lam) * mu) ** -0.5
    return InverseSqrtCorrelation(background, basis, scales, rows.constant, factor), lam, float(min_eig)
