"""Dynamic-programming join ordering: one cheapest plan per subgoal set.

Subplans covering the same subgoal set form an equivalence class, and
the DP keeps one cheapest plan per class (Selinger et al., SIGMOD 1979).
Two facts of the cost model make this exact; `optimize` states them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .costmodel import Estimate, JoinStrategy, JoinTable, default_strategies
from .model import Atom, DobError, Query
from .stats import StatisticsCatalog


class OptimizerError(DobError):
    pass


# Largest body `optimize` accepts. The DP extends every subgoal set by
# every subgoal outside it, so its work more than doubles per extra
# subgoal; at 12 subgoals one call takes 0.08-0.12 s on the timings in
# README "Optimizer", and 13 takes 0.18-0.28 s.
MAX_OPTIMIZE_SUBGOALS = 12
# Largest body `exhaustive_orderings` accepts: 6! = 720 orderings.
MAX_EXHAUSTIVE_SUBGOALS = 6


@dataclass(frozen=True)
class Plan:
    """The body joined in `order`, each step after the first by its
    strategy. `estimate` is the cost model's estimate of the whole plan,
    or None for a plan built without a catalog (`uniform_plan`)."""

    query: Query
    order: tuple[int, ...]
    strategies: tuple[JoinStrategy, ...]
    estimate: Estimate | None

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self.query.body[i] for i in self.order)


def _strategies(enabled_strategies) -> tuple[JoinStrategy, ...]:
    strategies = tuple(
        enabled_strategies if enabled_strategies is not None
        else default_strategies()
    )
    if not strategies:
        raise OptimizerError("at least one join strategy must be enabled")
    return strategies


def optimize(
    query: Query,
    catalog: StatisticsCatalog,
    enabled_strategies=None,
) -> Plan:
    """Lowest-estimated-cost left-deep ordering of the query body.

    Subgoal sets are visited as int bitmasks in ascending order (DPsub,
    Moerkotte & Neumann, VLDB 2006): every proper subset of a set is a
    smaller integer, so a set's entry is final before the set is
    extended. Each set is extended by every subgoal outside it in
    ascending position (subgoals sharing no variable join as a cross
    product with reduction factor 1). A set keeps only the estimate and
    last subgoal of the first generated of its candidates with the
    lexicographically smallest (cost, cardinality); for a set G those
    candidates come from G minus {i}, larger i first. This is exact with
    respect to the cost model because:

    1. A set's estimated cardinality does not depend on the order of its
       subgoals. It is the product of the subgoals' constant-only
       cardinalities and, per variable, 1/d for every distinct count d
       of its holders but the smallest (up to float rounding).
    2. Every join strategy's extension cost is nondecreasing in the
       prefix cost at a fixed prefix cardinality, and so is their
       minimum.

    So replacing the prefix of any plan by a cheaper plan for the same
    set never raises the plan's cost, and the kept entry for the full
    body costs no more than any ordering. The winning order is read back
    through the last-subgoal links, and its plan is built by
    `JoinTable.fold` like every other plan, so it equals the plan of its
    order in `exhaustive_orderings`. Bodies of more than
    `MAX_OPTIMIZE_SUBGOALS` subgoals are refused.
    """
    n = len(query.body)
    if n > MAX_OPTIMIZE_SUBGOALS:
        raise OptimizerError(
            f"optimization is capped at {MAX_OPTIMIZE_SUBGOALS} subgoals, "
            f"the query has {n}"
        )
    strategies = _strategies(enabled_strategies)
    joins = JoinTable(catalog, query.body)

    # subgoal set -> (estimate, last subgoal) of its kept plan
    kept: dict[int, tuple[Estimate, int]] = {
        1 << i: (est, i) for i, est in enumerate(joins.estimates)
    }
    full = (1 << n) - 1
    for left in range(1, full):
        prefix = kept[left][0]
        for idx in range(n):
            if left >> idx & 1:
                continue
            estimate = joins.join(prefix, left, idx, strategies)[0]
            grown = left | 1 << idx
            best = kept.get(grown)
            if best is None or (estimate.cost, estimate.cardinality) < (
                best[0].cost, best[0].cardinality
            ):
                kept[grown] = (estimate, idx)
    order: tuple[int, ...] = ()
    atom_set = full
    while atom_set:
        idx = kept[atom_set][1]
        order = (idx, *order)
        atom_set ^= 1 << idx
    return _plan_for_order(joins, query, order, strategies)


def _plan_for_order(joins: JoinTable, query: Query, order, strategies) -> Plan:
    steps = list(joins.fold(order, itertools.repeat(strategies)))
    return Plan(query, order, tuple(s for _, s in steps[1:]), steps[-1][0])


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
) -> list[Plan]:
    """Every ordering of the body with its per-step best strategy, in
    `itertools.permutations` order.

    Used as the optimizer's brute-force oracle and by the experiment
    harness, which needs worst and median orderings as well. Bodies of
    more than `MAX_EXHAUSTIVE_SUBGOALS` subgoals are refused.
    """
    n = len(query.body)
    if n > MAX_EXHAUSTIVE_SUBGOALS:
        raise OptimizerError(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_SUBGOALS} "
            "subgoals"
        )
    joins = JoinTable(catalog, query.body)
    strategies = _strategies(enabled_strategies)
    return [
        _plan_for_order(joins, query, perm, strategies)
        for perm in itertools.permutations(range(n))
    ]


def explain_plan(plan: Plan, catalog: StatisticsCatalog) -> str:
    """Indented step listing with per-prefix estimates, folded afresh on
    `catalog` with the plan's ordering and strategies."""
    steps = list(JoinTable(catalog, plan.query.body).fold(
        plan.order, [(s,) for s in plan.strategies]
    ))
    total = steps[-1][0]
    lines = [f"plan for {plan.query.head}  "
             f"(cost={total.cost:.3f}, card={total.cardinality:.3f})"]
    for i, (atom, (estimate, strategy)) in enumerate(
        zip(plan.atoms, steps), start=1
    ):
        via = f"  via {strategy}" if strategy is not None else ""
        lines.append(
            f"  {i}. {atom}{via}  "
            f"[cost={estimate.cost:.3f}, card={estimate.cardinality:.3f}]"
        )
    return "\n".join(lines)
