"""Per-layer table behind acceptance criteria 5 and 6 (CARS vs Cox).

Simulates the acceptance design (n=250, d=150, 10% influential covariates
in block 3, explained variance 0.75, 25% censoring, administrative cutoff
at the 0.9 time quantile) and prints, as a markdown table, the median
PR-AUC and rank correlation of each layer of the CARS estimate next to the
Cox baseline, with the paired mean difference to Cox on the same data.

Layers:

- uncensored: the same replicate streams with censoring switched off
  (censoring rate 1e-12, no cutoff), so covariates and latent log times
  are the very draws of the censored design;
- uncensored at n_eff: uncensored data with n equal to the median Kish
  effective sample size of the IPC weights on the censored design;
- IPC layers on the censored design, built from the package's public
  functions: raw IPC weights with the unweighted covariate moments and
  whitener (the estimator before the weights were made one distribution),
  weights rescaled to sum to n for every moment, and that plus Efron's
  tail rule (which is ``cars_score``); each marginal (lam = 1) and whitened.

With ``--tail-rule`` it prints instead, for censoring rates with and
without an administrative cutoff, the paired differences between the
whitened scores with the event weights only ("events") and with Efron's
tail rule ("tail", which is ``cars_score``), and of each against Cox.

Run from the repository root:

    PYTHONPATH=src python scripts/direction_table.py --seed 2718 --replicates 200
    PYTHONPATH=src python scripts/direction_table.py --tail-rule --seed 31337 --replicates 200
"""

from __future__ import annotations

import argparse

import numpy as np

from survscreen import cars_score, cox_scores, pr_auc
from survscreen.cars import DEFAULT_NU, scoring_weights, weighted_cars_score
from survscreen.data import covariate_summary
from survscreen.ipcw import censoring_km, ipc_weights
from survscreen.metrics import rank_correlation
from survscreen.shrinkage import whitener_from_data
from survscreen.simulate import (
    ScenarioConfig, build_block_design, generate_dataset, nearest_correlation, replicate_rng,
)

DESIGN = dict(
    n=250, d=150, influential_fraction=0.1, influential_block=3, explained_variance=0.75,
    censoring_rate=0.25, cutoff_quantile=0.9, block_magnitudes=(0.25, 0.5, 0.75),
)
UNCENSORED = dict(censoring_rate=1e-12, cutoff_quantile=1.0)


def ipc_scores(sample, lam, weighting):
    """IPC-weighted scores and their weights.

    weighting "mixed": raw event weights for the outcome moments (divided
    by n), with the unweighted covariate moments and whitener; "events":
    event weights rescaled to sum to n for every moment; "tail":
    ``scoring_weights`` (events plus the rows censored at the largest time,
    Efron's tail rule) for every moment, as ``cars_score``.  The last two
    are ``weighted_cars_score`` with those weights.
    """
    if weighting == "tail":
        w = scoring_weights(sample).weights
    else:
        w = ipc_weights(sample, censoring_km(sample), DEFAULT_NU).weights
    if weighting == "events":
        w = w * (sample.n / w.sum())
    if weighting != "mixed":
        return weighted_cars_score(sample, w, lam).scores, w
    x, n = sample.covariates, sample.n
    summary = covariate_summary(x)
    y = sample.log_times - w @ sample.log_times / n
    ok = ~summary.degenerate
    r = np.zeros(sample.d)
    r[ok] = ((x[:, ok] - summary.means[ok]).T @ (w * y) / n) / np.sqrt(
        summary.variances[ok] * (w @ y**2 / n)
    )
    whitener, _, _ = whitener_from_data(x, lam)
    theta = whitener.apply(r)
    theta[summary.degenerate] = 0.0
    return theta, w


LAYERS = {
    "IPC marginal, mixed weights": lambda s: ipc_scores(s, 1.0, "mixed")[0],
    "IPC whitened, mixed weights": lambda s: ipc_scores(s, None, "mixed")[0],
    "IPC marginal, one distribution": lambda s: ipc_scores(s, 1.0, "events")[0],
    "IPC whitened, one distribution": lambda s: ipc_scores(s, None, "events")[0],
    "IPC marginal, one distribution + Efron tail": lambda s: ipc_scores(s, 1.0, "tail")[0],
    "IPC whitened, one distribution + Efron tail (cars_score)": lambda s: cars_score(s).scores,
}


def evaluate(config, seed, replicates, scorers, corr):
    """{name: (replicates x 2) array of (PR-AUC, rank correlation)}."""
    out = {name: [] for name in scorers}
    for rep in range(replicates):
        sample, truth = generate_dataset(config, projected_corr=corr, rng=replicate_rng(seed, 0, rep))
        labels = np.zeros(config.d, dtype=int)
        labels[truth.influential_set] = 1
        for name, scorer in scorers.items():
            scores = scorer(sample)
            out[name].append((pr_auc(np.abs(scores), labels).auc, rank_correlation(truth.beta, scores)))
    return {name: np.array(v) for name, v in out.items()}


def median_ess(config, seed, replicates, corr):
    ess = []
    for rep in range(replicates):
        sample, _ = generate_dataset(config, projected_corr=corr, rng=replicate_rng(seed, 0, rep))
        w = scoring_weights(sample).weights
        ess.append(w.sum() ** 2 / (w @ w))
    return float(np.median(ess))


def table(seed: int, replicates: int) -> list[str]:
    corr = nearest_correlation(build_block_design(DESIGN["d"], DESIGN["block_magnitudes"])).matrix
    censored = ScenarioConfig(**DESIGN, seed=seed)
    n_eff = round(median_ess(censored, seed, replicates, corr))
    cars = {"CARS": lambda s: cars_score(s).scores, "Cox": lambda s: cox_scores(s).scores}
    blocks = [
        ("uncensored", ScenarioConfig(**{**DESIGN, **UNCENSORED}, seed=seed), cars),
        (f"uncensored, n = n_eff = {n_eff}",
         ScenarioConfig(**{**DESIGN, **UNCENSORED, "n": n_eff}, seed=seed), cars),
        ("25% censoring + cutoff", censored, {**LAYERS, "Cox": cars["Cox"]}),
    ]
    lines = [
        "| data | layer | PR-AUC | rank corr | PR-AUC - Cox | rank corr - Cox |",
        "|---|---|---|---|---|---|",
    ]
    for label, config, scorers in blocks:
        res = evaluate(config, seed, replicates, scorers, corr)
        for name, v in res.items():
            delta = ["", ""] if name == "Cox" else paired(v, res["Cox"])
            med = np.median(v, axis=0)
            lines.append(f"| {label} | {name} | {med[0]:.3f} | {med[1]:.3f} | {delta[0]} | {delta[1]} |")
    return lines


#: (censoring rate, cutoff quantile) of the tail-rule sweep; 1.0 means no cutoff
TAIL_DESIGNS = ((0.1, 1.0), (0.25, 1.0), (0.5, 1.0), (0.25, 0.9), (0.5, 0.9), (0.25, 0.75))


def paired(a, b):
    """Mean paired difference a - b of (PR-AUC, rank corr) with its standard error."""
    diff = a - b
    se = diff.std(axis=0, ddof=1) / np.sqrt(len(diff)) if len(diff) > 1 else np.zeros(2)
    return [f"{m:+.3f} ± {e:.3f}" for m, e in zip(diff.mean(axis=0), se)]


def tail_rule_table(seed: int, replicates: int) -> list[str]:
    """Whitened scores with and without Efron's tail rule, over censoring designs."""
    corr = nearest_correlation(build_block_design(DESIGN["d"], DESIGN["block_magnitudes"])).matrix
    scorers = {
        "events": lambda s: ipc_scores(s, None, "events")[0],
        "tail": lambda s: cars_score(s).scores,
        "Cox": lambda s: cox_scores(s).scores,
    }
    lines = [
        "| censoring | cutoff quantile | tail - events PR-AUC | tail - events rank corr "
        "| events - Cox PR-AUC | events - Cox rank corr | tail - Cox PR-AUC | tail - Cox rank corr |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for rate, cutoff in TAIL_DESIGNS:
        config = ScenarioConfig(**{**DESIGN, "censoring_rate": rate, "cutoff_quantile": cutoff}, seed=seed)
        res = evaluate(config, seed, replicates, scorers, corr)
        cells = paired(res["tail"], res["events"]) + paired(res["events"], res["Cox"])
        cells += paired(res["tail"], res["Cox"])
        lines.append(f"| {rate} | {'none' if cutoff == 1.0 else cutoff} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--tail-rule", action="store_true",
                        help="print the tail-rule sweep over censoring designs instead")
    args = parser.parse_args(argv)
    build = tail_rule_table if args.tail_rule else table
    print("\n".join(build(args.seed, args.replicates)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
