"""Experiment harness: estimated-vs-actual cost correlation and the
optimal/worst and optimal/median ordering ratios.

Every ordering of every query gets an estimate from the cost model and
an actual cost from one execution; the actual cost of a run is the
inferred fact count plus the extensional access count. One query's
orderings run in one `shared_prefixes` scope, so each resumes from the
prefix of steps it shares with the previous ordering, with the counters
of a fresh execution. The optimizer's plan is the plan of one of these
orderings, so its actual cost is read from that ordering's row, not
executed again. Reports are deterministic under fixed seeds; wall-clock
times are carried in the in-memory report for diagnostics but kept out
of the CSV rows so the files are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

from .costmodel import default_strategies
from .executor import execute, shared_prefixes
from .model import DobError
from .optimizer import exhaustive_orderings, optimize
from .stats import SamplingConfig, build_catalog


class BenchError(DobError):
    pass


@dataclass
class OrderingRow:
    """One ordering's estimate and actual cost. `wall_clock` is the time
    of the steps it did not share with the previous ordering of its
    query, so the rows' sum is the real evaluation time but one row's is
    not its full execution's."""

    base_id: str
    query_id: str
    ordering_index: int
    order: tuple[int, ...]
    estimated_cost: float
    actual_cost: int
    wall_clock: float = field(compare=False, default=0.0)


@dataclass
class RatioRow:
    base_id: str
    query_id: str
    optimal_cost: int
    worst_cost: int
    median_cost: int
    opt_worst_ratio: float
    opt_median_ratio: float


@dataclass
class ExperimentReport:
    rows: list[OrderingRow]
    correlation: float | None = None
    log_correlation: float | None = None
    ratios: list[RatioRow] = field(default_factory=list)


def pearson(xs, ys) -> float | None:
    """Sample Pearson correlation; None when either vector is constant."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or len(xs) < 2:
        raise BenchError("correlation needs two equal-length vectors")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _median_low(values) -> int:
    """Lower middle element of an even-length list (deterministic)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _query_orderings(bases, queries, config, strategies, catalogs):
    """(base, catalog, query, rows) per query in `queries[b]` of each
    `bases[b]`, one row per ordering of the query, executed once,
    resuming from the prefix it shares with the previous ordering. The
    catalogs are built from `config` unless given, one per base. An
    error raised for a query is prefixed with the query's id."""
    if len(queries) != len(bases):
        raise BenchError(
            f"bases and queries differ in length: {len(bases)} and"
            f" {len(queries)}"
        )
    if catalogs is None:
        catalogs = [build_catalog(base, config) for base in bases]
    elif len(catalogs) != len(bases):
        raise BenchError(
            f"bases and catalogs differ in length: {len(bases)} and"
            f" {len(catalogs)}"
        )
    for b, (base, catalog) in enumerate(zip(bases, catalogs)):
        for query in queries[b]:
            query_id = f"base{b}/{query.head.predicate}"
            rows = []
            try:
                plans = exhaustive_orderings(query, catalog, strategies)
                with shared_prefixes():
                    for i, plan in enumerate(plans):
                        t0 = time.perf_counter()
                        report = execute(base, plan)
                        rows.append(OrderingRow(
                            base_id=f"base{b}",
                            query_id=query_id,
                            ordering_index=i,
                            order=plan.order,
                            estimated_cost=plan.estimate.cost,
                            actual_cost=report.actual_cost,
                            wall_clock=time.perf_counter() - t0,
                        ))
            except DobError as err:
                err.args = (f"{query_id}: {err}",)
                raise
            yield base, catalog, query, rows


def _chosen_cost(rows, query, catalog, strategies) -> int:
    """The optimizer's plan is the plan of its ordering's row (`optimize`
    states why), so its actual cost is that row's."""
    order = optimize(query, catalog, strategies).order
    return next(r.actual_cost for r in rows if r.order == order)


def run_correlation(
    bases,
    queries,
    config: SamplingConfig,
    strategies=None,
    *,
    catalogs=None,
) -> ExperimentReport:
    """Estimated vs actual cost over every ordering of every query.

    `queries[i]` is the workload for `bases[i]`. A constant estimate or
    actual vector makes the correlation undefined (reported as None).
    """
    strategies = tuple(strategies) if strategies is not None else default_strategies()
    report = ExperimentReport([
        row
        for *_, rows in _query_orderings(
            bases, queries, config, strategies, catalogs
        )
        for row in rows
    ])
    estimates = [r.estimated_cost for r in report.rows]
    actuals = [float(r.actual_cost) for r in report.rows]
    report.correlation = pearson(estimates, actuals)
    # Costs span orders of magnitude; the log-scale correlation is the
    # robust companion number (scatter plots of these pairs are log-log).
    report.log_correlation = pearson(
        [math.log1p(x) for x in estimates],
        [math.log1p(y) for y in actuals],
    )
    return report


def run_ratio(
    bases,
    queries,
    config: SamplingConfig,
    strategies=None,
    *,
    catalogs=None,
) -> ExperimentReport:
    """Optimizer plan cost against the worst and median ordering costs."""
    strategies = tuple(strategies) if strategies is not None else default_strategies()
    report = ExperimentReport([])
    for _base, catalog, query, rows in _query_orderings(
        bases, queries, config, strategies, catalogs
    ):
        report.rows += rows
        actuals = [r.actual_cost for r in rows]
        optimal = _chosen_cost(rows, query, catalog, strategies)
        worst, median = max(actuals), _median_low(actuals)
        report.ratios.append(
            RatioRow(
                base_id=rows[0].base_id,
                query_id=rows[0].query_id,
                optimal_cost=optimal,
                worst_cost=worst,
                median_cost=median,
                opt_worst_ratio=optimal / worst if worst else 1.0,
                opt_median_ratio=optimal / median if median else 1.0,
            )
        )
    return report


def write_correlation_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["base", "query", "ordering_index", "ordering",
             "estimated_cost", "actual_cost"]
        )
        for r in report.rows:
            writer.writerow(
                [r.base_id, r.query_id, r.ordering_index,
                 " ".join(map(str, r.order)), repr(r.estimated_cost),
                 r.actual_cost]
            )


def write_ratio_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["base", "query", "optimal_cost", "worst_cost", "median_cost",
             "opt_worst_ratio", "opt_median_ratio"]
        )
        for r in report.ratios:
            writer.writerow(
                [r.base_id, r.query_id, r.optimal_cost, r.worst_cost,
                 r.median_cost, repr(r.opt_worst_ratio),
                 repr(r.opt_median_ratio)]
            )
