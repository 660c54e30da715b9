"""Spans recorded from outside the program, around survscreen's public functions.

``Tracer.patched()`` swaps each traced function, in every survscreen module
that holds a reference to it, for a wrapper that records a span and the
health counters of its result; leaving the block restores the originals.
Nothing in the package changes.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: span name -> (defining module, public function)
TRACED = {
    "simulate.generate": ("simulate", "generate_dataset"),
    "simulate.sample_covariates": ("simulate", "sample_covariates"),
    "simulate.population_scores": ("simulate", "population_scores"),
    "simulate.nearest_correlation": ("simulate", "nearest_correlation"),
    "cars.score": ("cars", "cars_score"),
    "cox.scores": ("cox", "cox_scores"),
    "ipcw.censoring_km": ("ipcw", "censoring_km"),
    "ipcw.ipc_weights": ("ipcw", "ipc_weights"),
    "data.covariate_summary": ("data", "covariate_summary"),
    "data.load_sample": ("data", "load_sample"),
    "shrinkage.whitener": ("shrinkage", "whitener_from_data"),
    "shrinkage.lambda": ("shrinkage", "shrinkage_lambda"),
    "fdr.select": ("fdr", "select"),
    "fdr.null_model_curve": ("fdr", "null_model_curve"),
    "metrics.pr_auc": ("metrics", "pr_auc"),
    "metrics.rank_correlation": ("metrics", "rank_correlation"),
}

_MODULES = ("cars", "cli", "cox", "data", "fdr", "ipcw", "metrics", "shrinkage", "simulate", "bench")


def _ipc_counters(result, args, kwargs):
    w = result.weights
    return {
        "event_frac": float(np.mean(w > 0)),
        "ess": float(w.sum() ** 2 / (w @ w)),
        "max_weight": float(w.max()),
        # an event weight of exactly 1/nu means G fell to the positivity floor
        "floor_hits": int(np.sum(w >= 1.0 / result.nu)),
    }


def _whitener_counters(result, args, kwargs):
    whitener, lam, min_eig = result
    rank = whitener.dim if whitener.basis is None else whitener.basis.shape[1]
    return {"lambda": float(lam), "kept_rank": int(rank), "min_eigenvalue": float(min_eig)}


def _cox_counters(result, args, kwargs):
    diag = result.diagnostics
    return {
        "newton_iters": int(np.sum(diag["iterations"])),
        "separation_count": sum(flag == "separation" for flag in diag["flags"]),
        "nonconverged_count": int(np.sum(~diag["converged"])),
    }


def _select_counters(result, args, kwargs):
    return {"eta0": float(result.eta0), "selected_count": int(result.selected.size)}


def _load_counters(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _nearest_counters(result, args, kwargs):
    return {"iters": int(result.iterations)}


COUNTERS = {
    "ipcw.ipc_weights": _ipc_counters,
    "shrinkage.whitener": _whitener_counters,
    "cox.scores": _cox_counters,
    "fdr.select": _select_counters,
    "data.load_sample": _load_counters,
    "simulate.nearest_correlation": _nearest_counters,
}


class Tracer:
    """Spans as [name, start, end, parent, op] rows plus per-call counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list[dict]] = {}
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def operation(self, name: str):
        """Top-level span of one operation; its descendants share its id."""
        self.op += 1
        with self.span(name):
            yield

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counters is not None:
                self.counters.setdefault(name, []).append(counters(result, args, kwargs))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every survscreen reference to a traced function through a span."""
        modules = [importlib.import_module("survscreen")]
        modules += [importlib.import_module(f"survscreen.{m}") for m in _MODULES]
        saved = []
        for name, (home, attr) in TRACED.items():
            original = getattr(importlib.import_module(f"survscreen.{home}"), attr)
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)

    # --- summaries --------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_table(self) -> dict[str, dict]:
        """Per span name: calls, total inclusive seconds, total self seconds."""
        table: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += own
        return table

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def counter_median(self, name: str, key: str) -> float:
        values = [c[key] for c in self.counters.get(name, [])]
        if not values:
            raise KeyError(f"no counter {key!r} was recorded for {name!r}")
        return statistics.median(values)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                    "counters": self.counters,
                    "self": self.self_table(),
                },
                fh,
            )
