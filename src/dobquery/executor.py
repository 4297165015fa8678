"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal through the engine's
public core, `compile_query`, `evaluate` and `check_batch`, and nothing
else of the engine. Nested loop applies the compiled step to the whole
batch with sideways variables bound, in the order the previous step
produced it, as `solve_sequence` does, so the two call the memo in the
same order and count the same work for the same ordering; block nested
loop runs the subgoal, compiled once with only its own constants bound,
once per block, and hash join once in total, and both equi-join the
result with the batch on the shared slots (a cross product if there are
none).
Each such step keeps one hash table of the subgoal's rows, keyed by the
shared variable itself when there is one, and probes a whole block with
it at once. A step that binds no new variable is a semi-join: it keeps
the table's key set and filters the block by it. The batch keeps its
order and every block is still solved and counted, so the counters do
not depend on how a block is probed.
No step's batch may pass the engine's `MAX_BATCH_ROWS` rows, and each
step is sized before it is built: a nested-loop step is one `evaluate`,
which sizes its own output, and an equi-join step adds up the table rows
each block's keys match before it builds the block, through the same
`check_batch`. A semi-join cannot grow the batch, so it needs no check.
Past the limit, execution raises `EngineLimitError`, and `execute`
names the plan step in it, as it does for the memo's entry cap. The
limit is on the batch, which keeps every variable, not on the answers:
a head of few variables over a big batch is refused too.
Execution ends with the engine's `Answers` of the query head and an
`EvaluationResult` with per-step counters, as `solve` does.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter

from .costmodel import JoinMethod, JoinStrategy
from .engine import (
    Answers,
    Counters,
    EngineLimitError,
    EvaluationResult,
    MemoTable,
    check_batch,
    compile_query,
    evaluate,
)
from .model import Query
from .optimizer import Plan, checked_order
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
            # size the block's output before building it
            matches = list(map(get, map(subst_key, block), repeat(())))
            check_batch(atom, len(out) + sum(map(len, matches)))
            joined = [s + r for s, rs in zip(block, matches) for r in rs]
        else:  # a semi-join cannot grow the batch
            joined = list(compress(block, map(has, map(subst_key, block))))
        if start:
            out += joined
        else:  # one block's result is the join, not copied
            out = joined
    return out


def execute(base, plan: Plan) -> EvaluationResult:
    """Evaluate the plan's ordering with its per-step strategies.

    A step whose batch would pass `MAX_BATCH_ROWS` substitutions, or
    whose tables would pass the memo's entry cap, raises
    `EngineLimitError` naming the step (from 1) and the limit."""
    memo = MemoTable()
    memo.bind(base)
    total = Counters()
    per_step: list[Counters] = []
    var_slot: dict[str, int] = {}
    batch: list[tuple] = [()]
    first = JoinStrategy(JoinMethod.NESTED_LOOP)
    try:
        for step, (atom, strategy) in enumerate(
            zip(plan.atoms, (first, *plan.strategies)), start=1
        ):
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
                batch = _equi_join(
                    base, memo, total, atom, size, batch, var_slot
                )
            per_step.append(
                Counters(
                    total.inferred_facts - inferred0, total.eob_accesses - eob0
                )
            )
    except EngineLimitError as err:
        err.args = (f"plan step {step}: {err}",)
        raise

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
        order = range(len(query.body))
    order = checked_order(query, order)
    return Plan(query, order, (strategy,) * (len(order) - 1), None)

