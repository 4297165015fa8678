"""Dynamic-programming join ordering with Pareto pruning.

Subplans covering the same subgoal set form an equivalence class; within
a class only the (cost, cardinality) Pareto frontier survives each round.
Because every extension formula is monotone in both prefix coordinates,
pruning preserves the optimum and the returned plan matches exhaustive
enumeration under the same cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .costmodel import (
    Estimate,
    JoinStrategy,
    default_strategies,
    join_estimate,
    plan_estimate,
    predicate_estimate,
)
from .model import Atom, DobError, Query
from .stats import StatisticsCatalog


class OptimizerError(DobError):
    pass


@dataclass(frozen=True)
class SubPlan:
    atom_set: frozenset[int]
    order: tuple[int, ...]
    strategies: tuple[JoinStrategy, ...]
    estimate: Estimate


@dataclass(frozen=True)
class Plan:
    query: Query
    order: tuple[int, ...]
    strategies: tuple[JoinStrategy, ...]
    estimate: Estimate

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self.query.body[i] for i in self.order)


def dominates(a: SubPlan, b: SubPlan) -> bool:
    """True iff `a` is no worse than its equivalent `b` on both estimated
    cost and cardinality, and strictly better on one."""
    if a.atom_set != b.atom_set:
        raise OptimizerError("dominance compares equivalent subplans only")
    ac, bc = a.estimate, b.estimate
    return (
        ac.cost <= bc.cost
        and ac.cardinality <= bc.cardinality
        and (ac.cost < bc.cost or ac.cardinality < bc.cardinality)
    )


def _prune(subplans: list[SubPlan]) -> list[SubPlan]:
    """Pareto frontier in generation order; ties keep the earliest."""
    kept: list[SubPlan] = []
    for sp in subplans:
        dead = False
        for other in kept:
            if dominates(other, sp) or (
                other.estimate.cost == sp.estimate.cost
                and other.estimate.cardinality == sp.estimate.cardinality
            ):
                dead = True
                break
        if dead:
            continue
        kept = [other for other in kept if not dominates(sp, other)]
        kept.append(sp)
    return kept


def _extend(catalog, query, sp: SubPlan, idx: int, strategies) -> SubPlan:
    """`sp` joined with one more subgoal by its cheapest enabled strategy."""
    left_atoms = [query.body[i] for i in sp.order]
    right = query.body[idx]
    best = None
    best_strategy = None
    for strategy in strategies:
        est = join_estimate(catalog, sp.estimate, left_atoms, right, strategy)
        if best is None or est.cost < best.cost:
            best = est
            best_strategy = strategy
    return SubPlan(
        sp.atom_set | {idx},
        sp.order + (idx,),
        sp.strategies + (best_strategy,),
        best,
    )


def _strategies(enabled_strategies) -> tuple[JoinStrategy, ...]:
    return tuple(
        enabled_strategies if enabled_strategies is not None
        else default_strategies()
    )


def optimize(
    query: Query,
    catalog: StatisticsCatalog,
    enabled_strategies=None,
    *,
    prune: bool = True,
) -> Plan:
    """Lowest-estimated-cost left-deep ordering of the query body.

    Every extension of every subplan is considered (subgoals sharing no
    variable join as a cross product with reduction factor 1), so the
    result is exact with respect to the cost model; equal-cost complete
    plans tie-break to the lexicographically smallest ordering.
    """
    if not query.body:
        raise OptimizerError("cannot optimize an empty query body")
    strategies = _strategies(enabled_strategies)
    if not strategies:
        raise OptimizerError("at least one join strategy must be enabled")
    n = len(query.body)

    frontier: dict[frozenset[int], list[SubPlan]] = {}
    for i, atom in enumerate(query.body):
        sp = SubPlan(
            frozenset([i]), (i,), (), predicate_estimate(catalog, atom)
        )
        frontier[sp.atom_set] = [sp]

    for _round in range(n - 1):
        extended: dict[frozenset[int], list[SubPlan]] = {}
        for key in sorted(frontier, key=sorted):
            for sp in frontier[key]:
                for idx in range(n):
                    if idx in sp.atom_set:
                        continue
                    new = _extend(catalog, query, sp, idx, strategies)
                    extended.setdefault(new.atom_set, []).append(new)
        if prune:
            frontier = {k: _prune(v) for k, v in extended.items()}
        else:
            frontier = extended

    complete = [sp for plans in frontier.values() for sp in plans]
    best = min(complete, key=lambda sp: (sp.estimate.cost, sp.order))
    return Plan(query, best.order, best.strategies, best.estimate)


def plan_for_order(
    query: Query,
    catalog: StatisticsCatalog,
    order,
    enabled_strategies=None,
) -> Plan:
    """The plan joining the body in `order`, each step by its cheapest
    enabled strategy."""
    order = tuple(order)
    strategies = _strategies(enabled_strategies)
    sp = SubPlan(
        frozenset(order[:1]),
        order[:1],
        (),
        predicate_estimate(catalog, query.body[order[0]]),
    )
    for idx in order[1:]:
        sp = _extend(catalog, query, sp, idx, strategies)
    return Plan(query, sp.order, sp.strategies, sp.estimate)


def exhaustive_orderings(
    query: Query,
    catalog: StatisticsCatalog,
    enabled_strategies=None,
    *,
    max_subgoals: int = 6,
) -> list[tuple[Plan, Estimate]]:
    """Every ordering of the body with its per-step best strategy.

    Used as the optimizer's brute-force oracle and by the experiment
    harness, which needs worst and median orderings as well.
    """
    n = len(query.body)
    if n > max_subgoals:
        raise OptimizerError(
            f"exhaustive enumeration is capped at {max_subgoals} subgoals"
        )
    out = []
    for perm in itertools.permutations(range(n)):
        plan = plan_for_order(query, catalog, perm, enabled_strategies)
        out.append((plan, plan.estimate))
    return out


def explain_plan(plan: Plan, catalog: StatisticsCatalog) -> str:
    """Indented step listing with per-prefix estimates."""
    lines = [f"plan for {plan.query.head}  "
             f"(cost={plan.estimate.cost:.3f}, card={plan.estimate.cardinality:.3f})"]
    atoms = plan.atoms
    running = predicate_estimate(catalog, atoms[0])
    lines.append(
        f"  1. {atoms[0]}  "
        f"[cost={running.cost:.3f}, card={running.cardinality:.3f}]"
    )
    for i, atom in enumerate(atoms[1:], start=2):
        strategy = plan.strategies[i - 2]
        running = join_estimate(
            catalog, running, list(atoms[: i - 1]), atom, strategy
        )
        lines.append(
            f"  {i}. {atom}  via {strategy}  "
            f"[cost={running.cost:.3f}, card={running.cardinality:.3f}]"
        )
    return "\n".join(lines)
