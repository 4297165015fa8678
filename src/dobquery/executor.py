"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal through the engine's
public core, `compile_query` and `evaluate`, and nothing else of the
engine. Nested loop applies the compiled step to the whole batch with
sideways variables bound, as `solve_sequence` does; block nested loop
runs the subgoal, compiled once with only its own constants bound, once
per block, and hash join once in total, and both equi-join the result
with the batch on the shared slots (a cross product if there are none).
Execution ends with the engine's `Answers` of the query head and an
`EvaluationResult` with per-step counters, as `solve` does.
"""

from __future__ import annotations

from .costmodel import Estimate, JoinMethod, JoinStrategy
from .engine import (
    Answers,
    Counters,
    EvaluationResult,
    MemoTable,
    compile_query,
    evaluate,
)
from .model import Query
from .optimizer import Plan
from .store import _getter


def _equi_join(base, memo, counters, atom, block_size, batch, var_slot):
    """Join `batch` with the atom's answers, solving it once per block."""
    own: dict[str, int] = {}
    steps = compile_query(memo, [atom], own)
    shared = [v for v in own if v in var_slot]
    row_key = _getter([own[v] for v in shared])
    row_ext = _getter([i for v, i in own.items() if v not in var_slot])
    subst_key = _getter([var_slot[v] for v in shared])
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    table: dict[tuple, list[tuple]] | None = None
    out: list[tuple] = []
    for start in range(0, len(batch), block_size):
        rows = evaluate(base, memo, counters, steps, [()])
        if table is None:  # every block reads the same rows
            table = {}
            for row in rows:
                table.setdefault(row_key(row), []).append(row_ext(row))
        for s in batch[start : start + block_size]:
            out.extend(map(s.__add__, table.get(subst_key(s), ())))
    return out


def execute(base, plan: Plan) -> EvaluationResult:
    """Evaluate the plan's ordering with its per-step strategies."""
    memo = MemoTable()
    memo.bind(base)
    total = Counters()
    per_step: list[Counters] = []
    var_slot: dict[str, int] = {}
    batch: list[tuple] = [()]
    first = JoinStrategy(JoinMethod.NESTED_LOOP)
    for atom, strategy in zip(plan.atoms, (first, *plan.strategies)):
        if not batch:
            per_step.append(Counters())
            continue
        # A step reads a sorted batch: each substitution's extensions follow
        # it in ascending id order, so steps call the memo in a fixed order.
        # Rows are distinct, so no duplicates arise. The last batch is only
        # projected, so it is never sorted.
        batch.sort()
        inferred0, eob0 = total.inferred_facts, total.eob_accesses
        if strategy.method is JoinMethod.NESTED_LOOP:
            steps = compile_query(memo, [atom], var_slot)
            batch = evaluate(base, memo, total, steps, batch)
        else:
            size = (
                strategy.block_size
                if strategy.method is JoinMethod.BLOCK_NESTED_LOOP
                else len(batch)
            )
            batch = _equi_join(base, memo, total, atom, size, batch, var_slot)
        per_step.append(
            Counters(
                total.inferred_facts - inferred0, total.eob_accesses - eob0
            )
        )

    return EvaluationResult(
        Answers.of(base.symbols, plan.query.head, var_slot, batch),
        total.inferred_facts, total.eob_accesses, per_step,
    )


def uniform_plan(
    query: Query,
    strategy: JoinStrategy,
    order: tuple[int, ...] | None = None,
) -> Plan:
    """A plan using one strategy at every step, without estimates."""
    if order is None:
        order = tuple(range(len(query.body)))
    return Plan(
        query,
        tuple(order),
        (strategy,) * (len(order) - 1),
        Estimate(0.0, 0.0),
    )

