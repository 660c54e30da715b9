"""Variable screening for right-censored survival data.

CARS scores (IPC-weighted correlations between de-correlated covariates
and log survival time), a univariate Cox Z-score baseline, FDR-based
selection and the simulation/evaluation harness around them.

The package root holds the library entry points the README shows; every
other public name is imported from its own module (``survscreen.ipcw``,
``survscreen.shrinkage``, ...).
"""

from .cars import ScoreVector, cars_score, rank_by_magnitude
from .cox import cox_scores
from .data import SurvivalSample, load_sample
from .fdr import SelectionResult, select
from .metrics import pr_auc
from .simulate import ScenarioConfig, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "ScoreVector",
    "SelectionResult",
    "SurvivalSample",
    "cars_score",
    "cox_scores",
    "generate_dataset",
    "load_sample",
    "pr_auc",
    "rank_by_magnitude",
    "select",
]
