"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal as a compiled engine
step. Nested loop applies the step to the whole batch with sideways
variables bound, as `solve_sequence` does; block nested loop runs the
subgoal with only its own constants bound once per block, and hash join
once in total, and both equi-join the result with the batch on the
shared slots (a cross product if there are none). Ids become text once,
for the distinct head instantiations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costmodel import Estimate, JoinMethod, JoinStrategy
from .engine import Counters, MemoTable, _body_atom, _compile_body, _evaluate
from .model import Atom, Query, Term
from .optimizer import Plan
from .store import _getter


@dataclass
class ExecutionReport:
    answers: list[Atom]
    inferred_fact_count: int
    eob_access_count: int
    per_step: list[Counters]

    @property
    def actual_cost(self) -> int:
        return self.inferred_fact_count + self.eob_access_count


def _equi_join(base, memo, counters, atom, block_size, batch, var_slot):
    """Join `batch` with the atom's answers, solving it once per block."""
    own: dict[str, int] = {}
    steps = _compile_body([atom], own)
    shared = [v for v in own if v in var_slot]
    row_key = _getter([own[v] for v in shared])
    row_ext = _getter([i for v, i in own.items() if v not in var_slot])
    subst_key = _getter([var_slot[v] for v in shared])
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    table: dict[tuple, list[tuple]] | None = None
    out: list[tuple] = []
    for start in range(0, len(batch), block_size):
        rows = _evaluate(base, memo, counters, steps, [()])
        if table is None:  # every block reads the same rows
            table = {}
            for row in rows:
                table.setdefault(row_key(row), []).append(row_ext(row))
        for s in batch[start : start + block_size]:
            out.extend(map(s.__add__, table.get(subst_key(s), ())))
    return out


def execute(base, plan: Plan) -> ExecutionReport:
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
        body_atom = _body_atom(memo, atom)
        if strategy.method is JoinMethod.NESTED_LOOP:
            steps = _compile_body([body_atom], var_slot)
            out = _evaluate(base, memo, total, steps, batch)
        else:
            size = (
                strategy.block_size
                if strategy.method is JoinMethod.BLOCK_NESTED_LOOP
                else len(batch)
            )
            out = _equi_join(
                base, memo, total, body_atom, size, batch, var_slot
            )
        # The batch is kept sorted: each substitution's extensions follow
        # it in ascending id order, so later steps call the memo in a fixed
        # order. Rows are distinct, so no duplicates arise.
        batch = sorted(out)
        per_step.append(
            Counters(
                total.inferred_facts - inferred0, total.eob_accesses - eob0
            )
        )

    head = plan.query.head
    instances: set[tuple] = set()
    if batch:
        slots = [var_slot[t.value] for t in head.args if t.is_var]
        instances = set(map(_getter(slots), batch))
    text = base.symbols.text
    ids = {v for values in instances for v in values}
    term = {v: Term.const(text(v)) for v in ids}
    shown = {v: str(t) for v, t in term.items()}
    # `arrange(values + head constants)` is in head argument order.
    head_consts = tuple(t for t in head.args if not t.is_var)
    shown_consts = tuple(map(str, head_consts))
    n_vars = len(head.args) - len(head_consts)
    var_at = iter(range(n_vars))
    const_at = iter(range(n_vars, len(head.args)))
    arrange = _getter([
        next(var_at) if t.is_var else next(const_at) for t in head.args
    ])

    def text_key(values):
        """str() of the answer, from each term's text rendered once."""
        shown_values = tuple(map(shown.__getitem__, values))
        args = ",".join(arrange(shown_values + shown_consts))
        return f"{head.predicate}({args})"

    answers = [
        Atom(head.predicate, arrange(
            tuple(map(term.__getitem__, values)) + head_consts
        ))
        for values in sorted(instances, key=text_key)
    ]
    return ExecutionReport(
        answers, total.inferred_facts, total.eob_accesses, per_step
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

