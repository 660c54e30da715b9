"""Test-only wrappers around package internals."""

import numpy as np

from survscreen.cox import CoxFit, _fit_columns


def cox_univariate(times, events, x) -> CoxFit:
    """The univariate Cox fit of one covariate vector x: the fit that
    ``cox_scores`` makes of each column (see ``cox._fit_columns``)."""
    return _fit_columns(times, events, np.asarray(x, dtype=float)[:, None])[0]
