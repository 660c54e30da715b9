"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and owns its own
arithmetic, so the bytes a workload feeds the program do not change when
the program changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

#: within-block correlation magnitudes of the three-block design
BLOCK_MAGNITUDES = (0.25, 0.5, 0.75)

#: the acceptance-scale design (tests/test_acceptance.py DESK_GRID) minus n, d, seed
ACCEPT_DESIGN = {
    "influential_fraction": "0.1",
    "influential_block": "3",
    "explained_variance": "0.75",
    "censoring_rate": "0.25",
    "cutoff_quantile": "0.9",
    "block_magnitudes": ":".join(repr(m) for m in BLOCK_MAGNITUDES),
}


def grid_config(n: int, d: int, seed: int) -> str:
    """Text of a one-scenario `bench` grid config on the acceptance design."""
    lines = [f"n = {n}", f"d = {d}"]
    lines += [f"{key} = {value}" for key, value in ACCEPT_DESIGN.items()]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def block_signs(m: int) -> np.ndarray:
    """Sign pattern of one block of the program's three-block design.

    Columns 1..k are +1 and k+1..m are -1, with k chosen so the counts of
    positive and negative within-block pairs are as equal as parity allows,
    ties going to the larger k.
    """
    target = m * (m - 1) / 4
    best_k, best_gap = 1, math.inf
    for k in range(1, m):
        gap = abs(k * (m - k) - target)
        if gap < best_gap or (gap == best_gap and k > best_k):
            best_k, best_gap = k, gap
    signs = np.ones(m)
    signs[best_k:] = -1.0
    return signs


@dataclass
class ScreenTruth:
    """Coefficients used to draw a screening input."""

    beta: np.ndarray
    influential: np.ndarray


def draw_screen_sample(n: int, d: int, seed: int, influential_fraction: float = 0.01,
                       explained_variance: float = 0.5, censoring_rate: float = 0.3):
    """(times, status, covariates, truth) from the block design in O(nd).

    Block b has correlation (1 - xi_b) I + xi_b s s', drawn as
    sqrt(1 - xi_b) z + sqrt(xi_b) s g with one shared normal g per row, so no
    d x d matrix is formed.  A sparse signal with alternating signs sits in
    block 3; log T is scaled to unit variance so no time overflows, and
    log-normal censoring with the same scale censors ``censoring_rate`` of
    the rows in expectation.
    """
    if d % 3 or d // 3 < 2:
        raise ValueError(f"d must be divisible by 3 with blocks >= 2, got {d}")
    rng = np.random.default_rng(seed)
    m = d // 3
    signs = block_signs(m)
    x = np.empty((n, d))
    for b, xi in enumerate(BLOCK_MAGNITUDES):
        z = rng.standard_normal((n, m))
        g = rng.standard_normal((n, 1))
        x[:, b * m:(b + 1) * m] = math.sqrt(1.0 - xi) * z + math.sqrt(xi) * g * signs

    k = max(1, round(influential_fraction * d))
    offsets = np.round(np.linspace(0, m - 1, k)).astype(int)
    influential = 2 * m + offsets
    magnitudes = np.exp(rng.normal(-0.5, 0.5, k))
    beta = np.zeros(d)
    beta[influential] = magnitudes * np.where(np.arange(k) % 2, -1.0, 1.0)

    xi = BLOCK_MAGNITUDES[2]
    b3 = beta[2 * m:]
    signal = (1.0 - xi) * float(b3 @ b3) + xi * float(signs @ b3) ** 2
    sigma = math.sqrt(signal * (1.0 - explained_variance) / explained_variance)
    scale = math.sqrt(signal + sigma**2)
    log_t = (x @ beta + sigma * rng.standard_normal(n)) / scale
    log_c = -ndtri(censoring_rate) * math.sqrt(2.0) + rng.standard_normal(n)
    times = np.exp(np.minimum(log_t, log_c))
    status = (log_t <= log_c).astype(int)
    return times, status, x, ScreenTruth(beta, influential)


def write_screen_csv(path, n: int, d: int, seed: int) -> ScreenTruth:
    """Write the `time,status,x1..xd` sample for ``seed`` and return its truth.

    Floats are written as their shortest round-trip ``repr``, so the file's
    bytes depend only on the seed.
    """
    times, status, x, truth = draw_screen_sample(n, d, seed)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["time", "status"] + [f"x{j + 1}" for j in range(d)]) + "\r\n")
        for i in range(n):
            cells = [repr(float(times[i])), str(int(status[i]))]
            cells += map(repr, x[i].tolist())
            fh.write(",".join(cells) + "\r\n")
    return truth
