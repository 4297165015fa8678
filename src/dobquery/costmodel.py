"""Cost and cardinality estimation for single predicates and joins.

Extensional predicates are costed from exact statistics: the expected
number of matching facts under a binding pattern is the cardinality
divided by the nKeys product of the bound arguments, and retrieval cost
equals that expected match count. Intensional predicates are looked up
from the sampled per-pattern statistics. Conjunctions combine the
per-predicate numbers with a System-R-style reduction factor and one of
three join strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import Atom, PredicateKind, SchemaError, schema_for
from .stats import BindingPattern, EobStats, StatisticsCatalog


@dataclass(frozen=True)
class Estimate:
    cost: float
    cardinality: float


class JoinMethod(Enum):
    NESTED_LOOP = "nlj"
    BLOCK_NESTED_LOOP = "bnlj"
    HASH_JOIN = "hash"


@dataclass(frozen=True)
class JoinStrategy:
    method: JoinMethod
    block_size: int = 32

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1: {self.block_size}")

    def __str__(self) -> str:
        if self.method is JoinMethod.BLOCK_NESTED_LOOP:
            return f"{self.method.value}[{self.block_size}]"
        return self.method.value


def default_strategies(block_size: int = 32) -> tuple[JoinStrategy, ...]:
    return (
        JoinStrategy(JoinMethod.NESTED_LOOP),
        JoinStrategy(JoinMethod.BLOCK_NESTED_LOOP, block_size),
        JoinStrategy(JoinMethod.HASH_JOIN),
    )


def binding_pattern(atom: Atom, bound_vars) -> BindingPattern:
    """Pattern of an atom: constants and already-bound variables are bound."""
    return BindingPattern(
        tuple(not t.is_var or t.value in bound_vars for t in atom.args)
    )


def predicate_estimate(
    catalog: StatisticsCatalog, atom: Atom, bound_vars=frozenset()
) -> Estimate:
    """Cost and cardinality of a single predicate call."""
    schema = schema_for(atom.predicate, len(atom.args))
    pattern = binding_pattern(atom, bound_vars)
    entry = catalog.entries.get(atom.predicate)
    if entry is None:
        raise SchemaError(f"catalog has no entry for {atom.predicate}")
    if schema.kind is PredicateKind.EOB:
        stats: EobStats = entry
        card = float(stats.cardinality)
        for pos in pattern.bound_positions:
            card /= max(1, stats.n_keys[pos])
        return Estimate(cost=card, cardinality=card)
    return Estimate(
        cost=entry.cost[pattern], cardinality=entry.cardinality[pattern]
    )


def _distinct_at(catalog: StatisticsCatalog, atom: Atom, pos: int) -> float:
    entry = catalog.entries[atom.predicate]
    if isinstance(entry, EobStats):
        return max(1.0, float(entry.n_keys[pos]))
    return max(1.0, entry.distinct_values[pos])


def _atom_distinct(catalog: StatisticsCatalog, atom: Atom) -> dict[str, float]:
    """Distinct-value estimate of each variable of an atom, in
    `Atom.variables` order: the tightest count among its occurrences."""
    distinct: dict[str, float] = {}
    for i, t in enumerate(atom.args):
        if t.is_var:
            d = _distinct_at(catalog, atom, i)
            best = distinct.get(t.value)
            distinct[t.value] = d if best is None else min(best, d)
    return distinct


class JoinTable:
    """Join inputs of one query body under one catalog, computed once.

    Subgoals are numbered by their position in `atoms`, and a left prefix
    is the int bitmask of the subgoals it covers. The constant-only
    estimate and per-variable distinct counts of each subgoal are read
    once from the catalog. `inputs` is recomputed per call, since the
    optimizer's DP visits subgoal sets in ascending integer order and
    asks for each (left set, right subgoal) pair once. The instantiated
    cost is cached per (right subgoal, shared variables), and so shared
    across left sets, join strategies and orderings.
    """

    def __init__(self, catalog: StatisticsCatalog, atoms):
        self.catalog = catalog
        self.atoms = tuple(atoms)
        self.estimates = tuple(predicate_estimate(catalog, a) for a in self.atoms)
        self._distinct = tuple(_atom_distinct(catalog, a) for a in self.atoms)
        # variable -> bitmask of the subgoals it occurs in
        self._holders: dict[str, int] = {}
        for i, distinct in enumerate(self._distinct):
            for var in distinct:
                self._holders[var] = self._holders.get(var, 0) | 1 << i
        self._inst_costs: dict[tuple[int, frozenset], float] = {}

    def inputs(self, left: int, right: int) -> tuple[float, float]:
        """(reduction factor, cost of subgoal `right` with the variables it
        shares with the left set bound) for the subgoal set `left`.

        The reduction factor is the product over shared variables of
        1/max(distinct left, distinct right), under independence and
        uniformity; 1.0 with no shared variables.
        """
        rf = 1.0
        shared = []
        for var, d_right in self._distinct[right].items():
            holders = self._holders[var] & left
            if holders:
                d_left = min(
                    self._distinct[i][var]
                    for i in range(holders.bit_length()) if holders >> i & 1
                )
                rf /= max(d_left, d_right)
                shared.append(var)
        inst_key = (right, frozenset(shared))
        inst_cost = self._inst_costs.get(inst_key)
        if inst_cost is None:
            inst_cost = self._inst_costs[inst_key] = predicate_estimate(
                self.catalog, self.atoms[right], inst_key[1]
            ).cost
        return rf, inst_cost

    def join(
        self, left_estimate: Estimate, left: int, right: int, strategies
    ) -> tuple[Estimate, JoinStrategy]:
        """Estimate of extending a left-deep prefix that covers the subgoal
        set `left` with subgoal `right`, by the cheapest of `strategies`
        (ties keep the first).

        Cardinality is strategy-independent: card(L) * card(R under query
        constants only) * reduction factor. Cost per strategy: nested loop
        charges the instantiated right side once per left row; block
        nested loop charges the right side once per block, unscaled; hash
        join charges each side once.
        """
        rf, inst_cost = self.inputs(left, right)
        r_const = self.estimates[right]
        left_cost, left_card = left_estimate.cost, left_estimate.cardinality
        best_cost = best_strategy = None
        for strategy in strategies:
            if strategy.method is JoinMethod.NESTED_LOOP:
                cost = nested_loop_cost(left_cost, left_card, inst_cost)
            elif strategy.method is JoinMethod.BLOCK_NESTED_LOOP:
                cost = block_nested_loop_cost(
                    left_cost, left_card, r_const.cost, strategy.block_size
                )
            else:
                cost = hash_join_cost(left_cost, r_const.cost)
            if best_cost is None or cost < best_cost:
                best_cost, best_strategy = cost, strategy
        card = join_cardinality(left_card, r_const.cardinality, rf)
        return Estimate(cost=best_cost, cardinality=card), best_strategy

    def fold(self, order, step_strategies):
        """Left-deep fold over the subgoals in `order`: yields the estimate
        of each prefix and the strategy that joined its last subgoal (None
        for the first). Each join step picks the cheapest of the next
        strategy tuple from `step_strategies`."""
        estimate = self.estimates[order[0]]
        left = 1 << order[0]
        yield estimate, None
        for idx, strategies in zip(order[1:], step_strategies):
            estimate, strategy = self.join(estimate, left, idx, strategies)
            left |= 1 << idx
            yield estimate, strategy


def join_cardinality(left_card: float, right_card: float, rf: float) -> float:
    return left_card * right_card * rf


def nested_loop_cost(left_cost: float, left_card: float, inst_cost: float) -> float:
    return left_cost + left_card * inst_cost


def block_nested_loop_cost(
    left_cost: float, left_card: float, right_cost: float, block_size: int
) -> float:
    return left_cost + math.ceil(left_card / block_size) * right_cost


def hash_join_cost(left_cost: float, right_cost: float) -> float:
    return left_cost + right_cost


def join_estimate(
    catalog: StatisticsCatalog,
    left_estimate: Estimate,
    left_atoms,
    right_atom: Atom,
    strategy: JoinStrategy,
) -> Estimate:
    """Estimate of extending a left-deep prefix with one more subgoal by
    `strategy`; see `JoinTable.join`."""
    left_atoms = list(left_atoms)
    table = JoinTable(catalog, [*left_atoms, right_atom])
    n = len(left_atoms)
    return table.join(left_estimate, (1 << n) - 1, n, (strategy,))[0]


def plan_estimate(
    catalog: StatisticsCatalog, ordered_atoms, strategies
) -> Estimate:
    """Left-deep fold of predicate and join estimates over an ordering."""
    atoms = list(ordered_atoms)
    if not atoms:
        raise SchemaError("plan_estimate requires at least one atom")
    strategies = list(strategies)
    if len(strategies) != len(atoms) - 1:
        raise SchemaError(
            f"expected {len(atoms) - 1} join strategies, got {len(strategies)}"
        )
    steps = JoinTable(catalog, atoms).fold(
        range(len(atoms)), [(s,) for s in strategies]
    )
    return list(steps)[-1][0]
