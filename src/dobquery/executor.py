"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal through the engine's
public core, `compile_query` and `evaluate`, and nothing else of the
engine. Nested loop applies the compiled step to the whole batch with
sideways variables bound, in the order the previous step produced it, as
`solve_sequence` does, so the two call the memo in the same order and
count the same work for the same ordering; block nested loop
runs the subgoal, compiled once with only its own constants bound, once
per block, and hash join once in total, and both equi-join the result
with the batch on the shared slots (a cross product if there are none).
Each such step keeps one hash table of the subgoal's rows, keyed by the
shared variable itself when there is one, and probes a whole block with
it at once. A step that binds no new variable is a semi-join: it keeps
the table's key set and filters the block by it. The batch keeps its
order and every block is still solved and counted, so the counters do
not depend on how a block is probed.
Execution ends with the engine's `Answers` of the query head and an
`EvaluationResult` with per-step counters, as `solve` does.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .costmodel import JoinMethod, JoinStrategy
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
    ext = [i for v, i in own.items() if v not in var_slot]
    if len(shared) == 1:  # key by the scalar, not a 1-tuple
        row_key = itemgetter(own[shared[0]])
        subst_key = itemgetter(var_slot[shared[0]])
    else:
        row_key = _getter([own[v] for v in shared])
        subst_key = _getter([var_slot[v] for v in shared])
    row_ext = _getter(ext)
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    out: list[tuple] = []
    for start in range(0, len(batch), block_size):
        rows = evaluate(base, memo, counters, steps, [()])
        if not start:  # every block reads the same rows
            if ext:
                table: dict[object, list[tuple]] = {}
                for row in rows:
                    table.setdefault(row_key(row), []).append(row_ext(row))
                get = table.get
            else:
                # A semi-join: evaluated rows are distinct
                # (test_evaluated_rows_are_distinct), so a key has one row
                # and a matching substitution is kept exactly once.
                has = set(map(row_key, rows)).__contains__
        block = (
            batch if block_size >= len(batch)
            else batch[start : start + block_size]
        )
        if ext:
            joined = [s + r for s in block for r in get(subst_key(s), ())]
        else:
            joined = list(compress(block, map(has, map(subst_key, block))))
        if start:
            out += joined
        else:  # one block's result is the join, not copied
            out = joined
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
    """A plan using one strategy at every step. It is built without a
    catalog, so its `estimate` is None; `explain_plan` folds the
    estimates of any plan on a catalog."""
    if order is None:
        order = tuple(range(len(query.body)))
    return Plan(query, tuple(order), (strategy,) * (len(order) - 1), None)

