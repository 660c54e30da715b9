"""Scenario generator: block-correlated Gaussian covariates, calibrated
log-normal survival and censoring, administrative cutoff.

The covariate correlation target is a three-block design whose within-block
entries are +-xi with the positive and negative counts balanced as far as
parity allows; cross-block correlations are zero.  The design is projected
onto the correlation-matrix set by alternating projections with Dykstra
correction before sampling.  Noise and censoring parameters are calibrated
analytically so the requested explained variance and censoring rate hold
exactly at the population level.

Everything but the draws depends on the scenario alone, so a ``Scenario``
is built once (projection, coefficients, calibration, and one eigh for the
covariate factor and the population scores) and ``Scenario.draw`` makes a
replicate from one block of standard normals, one matmul and the noise and
censoring draws.  ``generate_dataset`` is a one-replicate ``Scenario``.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import SurvivalSample
from .errors import BadDimension, BadFraction, BadValue, TimeOverflow, UnknownField, ZeroSignal

DEFAULT_MAGNITUDES = (0.25, 0.5, 0.75)


@dataclass
class ScenarioConfig:
    """Full parameterization of one simulation scenario."""

    n: int
    d: int
    influential_fraction: float
    influential_block: int
    explained_variance: float
    censoring_rate: float
    block_magnitudes: tuple[float, float, float] = DEFAULT_MAGNITUDES
    cutoff_quantile: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.d % 3 != 0 or self.d // 3 < 2:
            raise BadDimension(f"d must be divisible by 3 with blocks >= 2, got {self.d}")
        if self.n < 2:
            raise BadDimension(f"n must be >= 2, got {self.n}")
        if self.influential_block not in (1, 2, 3):
            raise BadDimension(f"influential_block must be 1..3, got {self.influential_block}")
        if not 0.0 < self.influential_fraction < 1.0:
            raise BadFraction(f"influential_fraction must be in (0, 1), got {self.influential_fraction}")
        if not 0.0 < self.explained_variance < 1.0:
            raise BadValue("explained_variance must be in (0, 1)")
        if not 0.0 < self.censoring_rate < 1.0:
            raise BadValue("censoring_rate must be in (0, 1)")
        if not 0.0 < self.cutoff_quantile <= 1.0:
            raise BadValue("cutoff_quantile must be in (0, 1]; 1.0 disables the cutoff")
        self.block_magnitudes = tuple(float(m) for m in self.block_magnitudes)
        if len(self.block_magnitudes) != 3:
            raise BadValue("block_magnitudes must have exactly 3 entries")
        if not all(0.0 <= m < 1.0 for m in self.block_magnitudes):
            raise BadValue(
                f"block_magnitudes must be finite and in [0, 1), got {self.block_magnitudes}"
            )
        if self.seed < 0:
            raise BadValue(f"seed must be >= 0, got {self.seed}")


@dataclass
class GroundTruth:
    """True coefficients and derived population quantities of a scenario."""

    beta: np.ndarray
    influential_set: np.ndarray
    population_theta: np.ndarray
    sigma_log: float


class NearestCorrelationResult(NamedTuple):
    matrix: np.ndarray
    iterations: int
    converged: bool


def replicate_rng(seed: int, *subkeys: int) -> np.random.Generator:
    """Counter-based generator with an independent substream per key tuple.

    Streams derived from the same seed and distinct subkeys (for instance
    (scenario_index, replicate_id)) are independent by construction, so
    results do not depend on the order in which replicates are executed.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in subkeys))
    return np.random.Generator(np.random.Philox(ss))


def _negative_split(m: int) -> int:
    """First-half size k: columns 1..k vs k+1..m carry opposite signs.

    Chosen so the counts of positive (within-half) and negative
    (cross-half) pairs are as equal as parity allows, preferring the
    smaller trailing negative group on ties.
    """
    target = m * (m - 1) / 4
    best_k, best_gap = 1, np.inf
    for k in range(1, m):
        gap = abs(k * (m - k) - target)
        if gap < best_gap or (gap == best_gap and k > best_k):
            best_k, best_gap = k, gap
    return best_k


def build_block_design(d: int, magnitudes=DEFAULT_MAGNITUDES) -> np.ndarray:
    """Three-block +-xi correlation design with zero cross-block entries."""
    if d % 3 != 0 or d // 3 < 2:
        raise BadDimension(f"d must be divisible by 3 with blocks >= 2, got {d}")
    m = d // 3
    k = _negative_split(m)
    sign = np.ones(m)
    sign[k:] = -1.0
    pattern = np.outer(sign, sign)
    out = np.zeros((d, d))
    for b, xi in enumerate(magnitudes):
        block = xi * pattern
        np.fill_diagonal(block, 1.0)
        out[b * m : (b + 1) * m, b * m : (b + 1) * m] = block
    return out


def nearest_correlation(
    a: np.ndarray, tol: float = 1e-8, max_iter: int = 500
) -> NearestCorrelationResult:
    """Nearest correlation matrix in the (unweighted) Frobenius norm.

    Alternating projections between the PSD cone and the unit-diagonal set
    with Dykstra correction, stopping when the Frobenius change between
    successive iterates drops to ``tol``.  On iteration exhaustion the best
    iterate is returned with converged=False.  The final polish floors the
    eigenvalues at 1e-10 and renormalizes the diagonal.
    """
    y = np.asarray(a, dtype=float).copy()
    correction = np.zeros_like(y)
    converged = False
    iterations = max_iter
    for it in range(1, max_iter + 1):
        r = y - correction
        w, v = np.linalg.eigh(r)
        x = (v * np.maximum(w, 0.0)) @ v.T
        x = (x + x.T) / 2
        correction = x - r
        y_new = x.copy()
        np.fill_diagonal(y_new, 1.0)
        change = float(np.linalg.norm(y_new - y))
        y = y_new
        if change <= tol:
            converged = True
            iterations = it
            break

    w, v = np.linalg.eigh(y)
    w = np.maximum(w, 1e-10)
    m = (v * w) @ v.T
    scale = np.sqrt(np.diag(m))
    m = m / np.outer(scale, scale)
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return NearestCorrelationResult(m, iterations, converged)


def sample_covariates(factor: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. rows from N(0, F F') for a factor F of the correlation."""
    z = rng.standard_normal((n, factor.shape[0]))
    return z @ factor.T


def make_beta(d: int, influential_fraction: float, influential_block: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients on the equidistant [-0.9, 1] grid, placed in one block.

    k = round(fraction * d) coefficients (half-up rounding) are assigned to
    evenly spread positions inside the chosen block, ascending grid value
    to ascending position.  A single coefficient takes the right endpoint 1.
    """
    m = d // 3
    k = int(math.floor(influential_fraction * d + 0.5))
    if k < 1:
        raise BadFraction(f"fraction {influential_fraction} rounds to no influential covariates")
    if k > m:
        raise BadFraction(f"{k} influential covariates exceed the block size {m}")
    if k == 1:
        offsets = np.array([(m - 1) // 2])
        values = np.array([1.0])
    else:
        offsets = np.round(np.linspace(0, m - 1, k)).astype(int)
        values = np.linspace(-0.9, 1.0, k)
    idx = (influential_block - 1) * m + offsets
    beta = np.zeros(d)
    beta[idx] = values
    return beta, idx


def calibrate_noise(signal: float, explained_variance: float) -> float:
    """Noise scale sigma so that signal / (signal + sigma^2) = explained_variance."""
    if not np.isfinite(signal) or signal <= 0:
        raise ZeroSignal(f"signal variance {signal} is not positive")
    return math.sqrt(signal * (1.0 - explained_variance) / explained_variance)


def calibrate_censoring(signal_variance: float, sigma_log: float, target_rate: float) -> float:
    """Log-mean of the censoring distribution hitting the target rate exactly.

    The censoring log-scale is set equal to the marginal log-survival scale
    s, so with log T ~ N(0, s^2) and log C ~ N(mu_C, s^2) the pre-cutoff
    censoring probability P(C < T) equals ``target_rate``.
    """
    s2 = signal_variance + sigma_log**2
    return -statistics.NormalDist().inv_cdf(target_rate) * math.sqrt(2.0 * s2)


def population_scores(beta: np.ndarray, root: np.ndarray, sd_log_t: float) -> np.ndarray:
    """Population score vector root @ beta / sd(log T) for root = corr^{1/2}."""
    return root @ beta / sd_log_t


@dataclass(frozen=True)
class Scenario:
    """The replicate-independent parts of a scenario, built once.

    ``build`` projects the block design (unless ``projected_corr`` is given),
    places the coefficients, calibrates the noise and censoring and takes one
    eigh; ``draw`` then does only a replicate's own work.
    """

    config: ScenarioConfig
    factor: np.ndarray
    truth: GroundTruth
    mu_c: float
    sigma_c: float

    @classmethod
    def build(cls, config: ScenarioConfig, projected_corr: np.ndarray | None = None) -> Scenario:
        """``projected_corr`` skips the projection when callers already hold it."""
        if projected_corr is None:
            design = build_block_design(config.d, config.block_magnitudes)
            projected_corr = nearest_correlation(design).matrix
        beta, influential = make_beta(
            config.d, config.influential_fraction, config.influential_block
        )
        signal = float(beta @ projected_corr @ beta)
        sigma = calibrate_noise(signal, config.explained_variance)
        sd_log_t = math.sqrt(signal + sigma**2)
        w, v = np.linalg.eigh(projected_corr)
        factor = v * np.sqrt(np.maximum(w, 0.0))
        truth = GroundTruth(
            beta=beta,
            influential_set=influential,
            population_theta=population_scores(beta, factor @ v.T, sd_log_t),
            sigma_log=sigma,
        )
        return cls(
            config=config,
            factor=factor,
            truth=truth,
            mu_c=calibrate_censoring(signal, sigma, config.censoring_rate),
            sigma_c=sd_log_t,
        )

    def draw(self, rng: np.random.Generator) -> SurvivalSample:
        """One replicate: covariates, then survival noise, then censoring.

        Times above their empirical ``cutoff_quantile`` are set to that
        quantile and marked censored; ``cutoff_quantile=1.0`` disables the
        cutoff.  A time that leaves the float range on the raw scale
        (sd(log T) in the hundreds) raises TimeOverflow.
        """
        config, beta = self.config, self.truth.beta
        x = sample_covariates(self.factor, config.n, rng)
        log_t = x @ beta + self.truth.sigma_log * rng.standard_normal(config.n)
        log_c = self.mu_c + self.sigma_c * rng.standard_normal(config.n)
        with np.errstate(over="ignore"):
            observed = np.exp(np.minimum(log_t, log_c))
        out = ~(np.isfinite(observed) & (observed > 0))
        if out.any():
            raise TimeOverflow(
                f"{int(out.sum())} of {config.n} simulated times are 0 or infinite on the "
                f"raw scale: sd(log T) = {self.sigma_c:.4g}"
            )
        delta = (log_t <= log_c).astype(np.int64)

        if config.cutoff_quantile < 1.0:
            cutoff = float(np.quantile(observed, config.cutoff_quantile))
            over = observed > cutoff
            observed[over] = cutoff
            delta[over] = 0
        return SurvivalSample.from_times(observed, delta, x)


def generate_dataset(
    config: ScenarioConfig,
    replicate_id: int = 0,
    projected_corr: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[SurvivalSample, GroundTruth]:
    """One simulated dataset plus its ground truth: ``Scenario.build(...).draw(rng)``.

    ``rng`` overrides the default (seed, replicate_id) substream.  Callers
    that draw many replicates of one scenario should build it once.
    """
    if rng is None:
        rng = replicate_rng(config.seed, replicate_id)
    scenario = Scenario.build(config, projected_corr)
    return scenario.draw(rng), scenario.truth


# --- flat key=value config files --------------------------------------------

#: scenario fields, in the order bench scenario keys list them
SCENARIO_FIELDS = (
    "n",
    "d",
    "influential_fraction",
    "influential_block",
    "explained_variance",
    "censoring_rate",
    "cutoff_quantile",
    "block_magnitudes",
)

FIELD_PARSERS = {
    "n": int,
    "d": int,
    "influential_fraction": float,
    "influential_block": int,
    "explained_variance": float,
    "censoring_rate": float,
    "cutoff_quantile": float,
    "block_magnitudes": lambda s: tuple(float(p) for p in s.split(":")),
    "seed": int,
}


def parse_value(key: str, text: str):
    """One config value, converted by the parser of its key."""
    if key not in FIELD_PARSERS:
        raise UnknownField(f"unknown config key {key!r}")
    try:
        return FIELD_PARSERS[key](text)
    except ValueError:
        raise BadValue(f"bad value {text!r} for {key!r}") from None


def parse_grid(lines) -> tuple[list[dict], int]:
    """Parse a grid config into (scenario parameter dicts, master seed).

    Lines are `key=value`, one per key; '#' starts a comment and blank lines
    are skipped.  Every value but the seed's may be a comma-separated list,
    and the scenarios are the cartesian product of the listed values.  Keys
    left out take their ScenarioConfig defaults; the others are required.
    """
    swept = {f.name: [f.default] for f in fields(ScenarioConfig) if f.default is not MISSING}
    seed = swept.pop("seed")[0]
    given = set()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in given:
            raise BadValue(f"config key {key!r} given twice")
        given.add(key)
        if key == "seed":
            seed = parse_value(key, value)
        else:
            swept[key] = [parse_value(key, tok.strip()) for tok in value.split(",")]
    missing = [k for k in SCENARIO_FIELDS if k not in swept]
    if missing:
        raise UnknownField(f"config missing keys: {', '.join(missing)}")
    scenarios = [
        dict(zip(SCENARIO_FIELDS, combo))
        for combo in itertools.product(*(swept[k] for k in SCENARIO_FIELDS))
    ]
    return scenarios, seed


def load_scenario_config(path) -> ScenarioConfig:
    """Read a scenario config: a grid config with one value per key."""
    with open(path) as fh:
        scenarios, seed = parse_grid(fh)
    if len(scenarios) != 1:
        raise BadValue(f"a scenario config takes one value per key, got {len(scenarios)} scenarios")
    return ScenarioConfig(**scenarios[0], seed=seed)
