"""Cost and cardinality estimation for single predicates and joins.

The expected number of matching facts under a binding pattern is
`stats.pattern_cardinality`, for both predicate kinds. Extensional
retrieval cost equals that expected match count; intensional cost is
looked up from the sampled per-pattern statistics. Conjunctions combine
the per-predicate numbers with a System-R-style reduction factor and one
of two join strategies, nested loop and hash join.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Atom, PredicateKind, SchemaError, schema_for
from .stats import BindingPattern, StatisticsCatalog
from .stats import distinct_counts, pattern_cardinality


@dataclass(frozen=True)
class Estimate:
    cost: float
    cardinality: float


class JoinMethod(Enum):
    NESTED_LOOP = "nlj"
    HASH_JOIN = "hash"


# Plain names for the hot loop: a member lookup on the Enum class costs
# about ten times a global read.
_NESTED_LOOP = JoinMethod.NESTED_LOOP


@dataclass(frozen=True)
class JoinStrategy:
    method: JoinMethod

    def __str__(self) -> str:
        return self.method.value


def default_strategies() -> tuple[JoinStrategy, ...]:
    return (
        JoinStrategy(JoinMethod.NESTED_LOOP),
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
    card = pattern_cardinality(entry, pattern)
    cost = card if schema.kind is PredicateKind.EOB else entry.cost[pattern]
    return Estimate(cost=cost, cardinality=card)


def _atom_distinct(catalog: StatisticsCatalog, atom: Atom) -> dict[str, float]:
    """Distinct-value estimate of each variable of an atom, in
    `Atom.variables` order: the tightest count among its occurrences."""
    counts = distinct_counts(catalog.entries[atom.predicate])
    distinct: dict[str, float] = {}
    for i, t in enumerate(atom.args):
        if t.is_var:
            d = max(1.0, float(counts[i]))
            best = distinct.get(t.value)
            distinct[t.value] = d if best is None else min(best, d)
    return distinct


class JoinTable:
    """Join inputs of one query body under one catalog, computed once.

    Subgoals are numbered by their position in `atoms`, and a subgoal set
    is the int bitmask of the subgoals it covers. The constant-only
    estimate and per-variable distinct counts of each subgoal are read
    once from the catalog. Per subgoal set, the table keeps the smallest
    distinct count of each variable over the set's subgoals, filled
    lazily from the set minus its highest subgoal: the optimizer's DP
    visits sets in ascending integer order, so that smaller set is
    always filled first, and each (left set, right subgoal) pair reads
    its shared variables' counts instead of scanning their holders. The
    instantiated cost is cached per (right subgoal, shared variables),
    and so shared across left sets, join strategies and orderings.
    """

    def __init__(self, catalog: StatisticsCatalog, atoms):
        self.catalog = catalog
        self.atoms = tuple(atoms)
        self.estimates = tuple(predicate_estimate(catalog, a) for a in self.atoms)
        self._distinct = tuple(_atom_distinct(catalog, a) for a in self.atoms)
        # subgoal set -> smallest distinct count of each of its variables
        self._set_distinct: dict[int, dict[str, float]] = {0: {}}
        self._inst_costs: dict[tuple[int, tuple[str, ...]], float] = {}

    def _smallest_distinct(self, atom_set: int) -> dict[str, float]:
        """Smallest distinct count of each variable over the subgoals in
        `atom_set`. A set is filled from the set minus its highest
        subgoal, which the DP's integer order and a fold in written order
        always fill first; any other set is filled from its members."""
        counts = self._set_distinct.get(atom_set)
        if counts is None:
            high = 1 << atom_set.bit_length() - 1
            parent = self._set_distinct.get(atom_set ^ high)
            if parent is None:
                parent, new = {}, atom_set
            else:
                new = high
            counts = self._set_distinct[atom_set] = dict(parent)
            while new:
                low = new & -new
                new ^= low
                for var, d in self._distinct[low.bit_length() - 1].items():
                    best = counts.get(var)
                    if best is None or d < best:
                        counts[var] = d
        return counts

    def inputs(self, left: int, right: int) -> tuple[float, float]:
        """(reduction factor, cost of subgoal `right` with the variables it
        shares with the left set bound) for the subgoal set `left`.

        The reduction factor is the product over shared variables, in
        `right`'s variable order, of 1/max(distinct left, distinct
        right), under independence and uniformity; 1.0 with no shared
        variables. The left count is the smallest over the left set.
        """
        left_distinct = self._smallest_distinct(left)
        rf = 1.0
        shared = []
        for var, d_right in self._distinct[right].items():
            d_left = left_distinct.get(var)
            if d_left is not None:
                rf /= max(d_left, d_right)
                shared.append(var)
        inst_key = (right, tuple(shared))
        inst_cost = self._inst_costs.get(inst_key)
        if inst_cost is None:
            inst_cost = self._inst_costs[inst_key] = predicate_estimate(
                self.catalog, self.atoms[right], inst_key[1]
            ).cost
        return rf, inst_cost

    def extend(
        self, left_cost: float, left_card: float, left: int, right: int,
        strategies,
    ) -> tuple[float, float, JoinStrategy]:
        """(cost, cardinality, strategy) of extending a left-deep prefix
        that covers the subgoal set `left`, at `left_cost` and
        `left_card`, with subgoal `right`, by the cheapest of
        `strategies` (ties keep the first).

        Cardinality is strategy-independent: card(L) * card(R under query
        constants only) * reduction factor. Cost per strategy: nested loop
        charges the instantiated right side once per left row; hash join
        charges each side once.
        """
        rf, inst_cost = self.inputs(left, right)
        r_const = self.estimates[right]
        best_cost = best_strategy = None
        for strategy in strategies:
            if strategy.method is _NESTED_LOOP:
                cost = left_cost + left_card * inst_cost
            else:
                cost = left_cost + r_const.cost
            if best_cost is None or cost < best_cost:
                best_cost, best_strategy = cost, strategy
        return best_cost, left_card * r_const.cardinality * rf, best_strategy

    def fold(self, order, step_strategies):
        """Left-deep fold over the subgoals in `order`: yields the estimate
        of each prefix and the strategy that joined its last subgoal (None
        for the first). Each join step picks the cheapest of the next
        strategy tuple from `step_strategies`."""
        estimate = self.estimates[order[0]]
        left = 1 << order[0]
        yield estimate, None
        for idx, strategies in zip(order[1:], step_strategies):
            cost, card, strategy = self.extend(
                estimate.cost, estimate.cardinality, left, idx, strategies
            )
            estimate = Estimate(cost=cost, cardinality=card)
            left |= 1 << idx
            yield estimate, strategy


def join_estimate(
    catalog: StatisticsCatalog,
    left_estimate: Estimate,
    left_atoms,
    right_atom: Atom,
    strategy: JoinStrategy,
) -> Estimate:
    """Estimate of extending a left-deep prefix with one more subgoal by
    `strategy`; see `JoinTable.extend`."""
    left_atoms = list(left_atoms)
    table = JoinTable(catalog, [*left_atoms, right_atom])
    n = len(left_atoms)
    cost, card, _ = table.extend(
        left_estimate.cost, left_estimate.cardinality, (1 << n) - 1, n,
        (strategy,),
    )
    return Estimate(cost=cost, cardinality=card)


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
