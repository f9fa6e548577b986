"""Spans around rackhom's module boundaries, and the per-module metrics
they add up to.

`Tracer.install` wraps public functions where their callers look them up
(`rackhom.cli` for the layers the CLI calls, `rackhom.homology` for
`boundary_matrix` and `smith_normal_form`, `rackhom.cycles` for
`rational_rank`) plus two methods on their classes.  No file of rackhom
changes.  Each wrapper records a span (name, start, end, parent) in memory;
the job runner writes them out once the job ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable

# Counters recorded at a boundary from (arguments, result).
_COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "chains.boundary_matrix": lambda args, m: {
        "chains.boundary_nnz": m.nnz,
        "chains.boundary_cols": m.col_count,
    },
    "linalg.smith": lambda args, form: {
        "linalg.smith_rank": form.rank,
        "linalg.smith_nonunit": sum(1 for d in form.divisors if d > 1),
    },
    "linalg.rational_rank": lambda args, rank: {"linalg.rational_rank_rows": args[0].row_count},
    "cycles.basis_recipes": lambda args, recipes: {"cycles.recipes": len(recipes)},
    "cycles.evaluate": lambda args, chain: {"cycles.chain_terms": len(chain)},
}


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Count calls without a span, for methods called too often to time."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> Callable[[list[str]], int]:
        """Wrap rackhom's boundaries; returns the traced `cli.main`."""
        from rackhom import cli, closed_forms, cycles, homology

        for name, attr in [
            ("cli.load_description", "load_description"),
            ("racks.validate_rack", "validate_rack"),
            ("homology.table", "homology_table"),
            ("cycles.basis_recipes", "basis_recipes"),
            ("cycles.certificate", "independence_certificate"),
            ("closed_forms.betti", "betti"),
            ("closed_forms.e2_rank", "e2_rank"),
            ("closed_forms.poincare_series", "poincare_series"),
        ]:
            setattr(cli, attr, self.wrap(name, getattr(cli, attr)))
        homology.boundary_matrix = self.wrap("chains.boundary_matrix", homology.boundary_matrix)
        homology.smith_normal_form = self.wrap("linalg.smith", homology.smith_normal_form)
        cycles.rational_rank = self.wrap("linalg.rational_rank", cycles.rational_rank)
        cycles.CycleRecipe.evaluate = self.wrap("cycles.evaluate", cycles.CycleRecipe.evaluate)
        closed_forms.IntPolynomial.__mul__ = self.count(
            "closed_forms.poly_mul_calls", closed_forms.IntPolynomial.__mul__
        )
        return self.wrap("cli.main", cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


# Per-module metrics: (metric, unit, what it is read from).  "time" sums the
# spans' durations, "self" their durations less their children's, "calls"
# counts spans and "count" reads a counter.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.load_description_s", "s", "time", "cli.load_description"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("racks.validate_rack_s", "s", "time", "racks.validate_rack"),
    ("racks.validate_rack_calls", "count", "calls", "racks.validate_rack"),
    ("chains.boundary_matrix_s", "s", "time", "chains.boundary_matrix"),
    ("chains.boundary_matrix_calls", "count", "calls", "chains.boundary_matrix"),
    ("chains.boundary_nnz", "count", "count", "chains.boundary_nnz"),
    ("chains.boundary_cols", "count", "count", "chains.boundary_cols"),
    ("linalg.smith_s", "s", "time", "linalg.smith"),
    ("linalg.smith_calls", "count", "calls", "linalg.smith"),
    ("linalg.smith_rank", "count", "count", "linalg.smith_rank"),
    ("linalg.smith_nonunit", "count", "count", "linalg.smith_nonunit"),
    ("linalg.rational_rank_s", "s", "time", "linalg.rational_rank"),
    ("linalg.rational_rank_calls", "count", "calls", "linalg.rational_rank"),
    ("linalg.rational_rank_rows", "count", "count", "linalg.rational_rank_rows"),
    ("homology.table_s", "s", "time", "homology.table"),
    ("homology.self_s", "s", "self", "homology.table"),
    ("cycles.basis_recipes_s", "s", "time", "cycles.basis_recipes"),
    ("cycles.evaluate_s", "s", "time", "cycles.evaluate"),
    ("cycles.certificate_s", "s", "time", "cycles.certificate"),
    ("cycles.certificate_self_s", "s", "self", "cycles.certificate"),
    ("cycles.recipes", "count", "count", "cycles.recipes"),
    ("cycles.chain_terms", "count", "count", "cycles.chain_terms"),
    ("closed_forms.e2_rank_s", "s", "time", "closed_forms.e2_rank"),
    ("closed_forms.e2_rank_calls", "count", "calls", "closed_forms.e2_rank"),
    ("closed_forms.betti_s", "s", "time", "closed_forms.betti"),
    ("closed_forms.betti_calls", "count", "calls", "closed_forms.betti"),
    ("closed_forms.poincare_series_s", "s", "time", "closed_forms.poincare_series"),
    ("closed_forms.poly_mul_calls", "count", "count", "closed_forms.poly_mul_calls"),
)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum every job's spans and counters into the LAYER_METRICS values."""
    totals: Counter[tuple[str, str]] = Counter()
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), children in zip(spans, covered):
            totals[("time", name)] += end - start
            totals[("self", name)] += end - start - children
            totals[("calls", name)] += 1
        for name, value in trace["counts"].items():
            totals[("count", name)] += value
    return {metric: totals[(kind, source)] for metric, _, kind, source in LAYER_METRICS}
