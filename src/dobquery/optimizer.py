"""Dynamic-programming join ordering with Pareto pruning.

Subplans covering the same subgoal set form an equivalence class; within
a class only the (cost, cardinality) Pareto frontier survives each round.
Because every extension formula is monotone in both prefix coordinates,
pruning preserves the optimum and the returned plan matches exhaustive
enumeration under the same cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .costmodel import Estimate, JoinStrategy, JoinTable, default_strategies
from .model import Atom, DobError, Query
from .stats import StatisticsCatalog


class OptimizerError(DobError):
    pass


# Largest body `optimize` accepts. The DP extends every subgoal set by
# every subgoal outside it, so its work more than doubles per extra
# subgoal; 12 is the largest body that optimizes in under 2 s on the
# timings in README "Optimizer".
MAX_OPTIMIZE_SUBGOALS = 12


@dataclass(frozen=True)
class SubPlan:
    atom_set: int  # bitmask of the body positions the subplan covers
    order: tuple[int, ...]
    strategies: tuple[JoinStrategy, ...]
    estimate: Estimate


@dataclass(frozen=True)
class Plan:
    query: Query
    order: tuple[int, ...]
    strategies: tuple[JoinStrategy, ...]
    estimate: Estimate
    # The join table the plan was costed on, if any; `explain_plan` reads it.
    joins: JoinTable | None = field(default=None, compare=False, repr=False)

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


def _extend(joins: JoinTable, sp: SubPlan, idx: int, strategies) -> SubPlan:
    """`sp` joined with one more subgoal by its cheapest enabled strategy."""
    estimate, strategy = joins.join(sp.estimate, sp.atom_set, idx, strategies)
    return SubPlan(
        sp.atom_set | 1 << idx,
        sp.order + (idx,),
        sp.strategies + (strategy,),
        estimate,
    )


def _members(atom_set: int) -> list[int]:
    return [i for i in range(atom_set.bit_length()) if atom_set >> i & 1]


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
    result's cost is exact with respect to the cost model. Equal-cost
    complete plans tie-break to the lexicographically smallest ordering
    among those pruning kept; pruning may drop an equal-cost ordering of
    higher cardinality. Bodies of more than `MAX_OPTIMIZE_SUBGOALS`
    subgoals are refused.
    """
    if not query.body:
        raise OptimizerError("cannot optimize an empty query body")
    n = len(query.body)
    if n > MAX_OPTIMIZE_SUBGOALS:
        raise OptimizerError(
            f"optimization is capped at {MAX_OPTIMIZE_SUBGOALS} subgoals, "
            f"the query has {n}"
        )
    strategies = _strategies(enabled_strategies)
    if not strategies:
        raise OptimizerError("at least one join strategy must be enabled")
    joins = JoinTable(catalog, query.body)

    frontier: dict[int, list[SubPlan]] = {
        1 << i: [SubPlan(1 << i, (i,), (), est)]
        for i, est in enumerate(joins.estimates)
    }
    for _round in range(n - 1):
        extended: dict[int, list[SubPlan]] = {}
        for key in sorted(frontier, key=_members):
            for sp in frontier[key]:
                for idx in range(n):
                    if key >> idx & 1:
                        continue
                    new = _extend(joins, sp, idx, strategies)
                    extended.setdefault(new.atom_set, []).append(new)
        if prune:
            frontier = {k: _prune(v) for k, v in extended.items()}
        else:
            frontier = extended

    complete = [sp for plans in frontier.values() for sp in plans]
    best = min(complete, key=lambda sp: (sp.estimate.cost, sp.order))
    return Plan(query, best.order, best.strategies, best.estimate, joins)


def _plan_for_order(joins: JoinTable, query: Query, order, strategies) -> Plan:
    sp = SubPlan(1 << order[0], order[:1], (), joins.estimates[order[0]])
    for idx in order[1:]:
        sp = _extend(joins, sp, idx, strategies)
    return Plan(query, sp.order, sp.strategies, sp.estimate, joins)


def plan_for_order(
    query: Query,
    catalog: StatisticsCatalog,
    order,
    enabled_strategies=None,
) -> Plan:
    """The plan joining the body in `order`, each step by its cheapest
    enabled strategy."""
    return _plan_for_order(
        JoinTable(catalog, query.body), query, tuple(order),
        _strategies(enabled_strategies),
    )


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
    joins = JoinTable(catalog, query.body)
    strategies = _strategies(enabled_strategies)
    out = []
    for perm in itertools.permutations(range(n)):
        plan = _plan_for_order(joins, query, perm, strategies)
        out.append((plan, plan.estimate))
    return out


def explain_plan(plan: Plan, catalog: StatisticsCatalog) -> str:
    """Indented step listing with per-prefix estimates, read from the join
    table the plan was costed on when it was costed on `catalog`."""
    joins = plan.joins
    if joins is None or joins.catalog is not catalog:
        joins = JoinTable(catalog, plan.query.body)
    lines = [f"plan for {plan.query.head}  "
             f"(cost={plan.estimate.cost:.3f}, card={plan.estimate.cardinality:.3f})"]
    atoms = plan.atoms
    first = plan.order[0]
    running = joins.estimates[first]
    lines.append(
        f"  1. {atoms[0]}  "
        f"[cost={running.cost:.3f}, card={running.cardinality:.3f}]"
    )
    left = 1 << first
    for i, (idx, strategy) in enumerate(
        zip(plan.order[1:], plan.strategies), start=2
    ):
        running, _ = joins.join(running, left, idx, (strategy,))
        left |= 1 << idx
        lines.append(
            f"  {i}. {atoms[i - 1]}  via {strategy}  "
            f"[cost={running.cost:.3f}, card={running.cardinality:.3f}]"
        )
    return "\n".join(lines)
