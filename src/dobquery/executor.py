"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal as a compiled engine
step. Nested loop applies the step to the whole batch with sideways
variables bound, as `solve_sequence` does; block nested loop runs the
subgoal with only its own constants bound once per block, and hash join
once in total, and both equi-join the result with the batch on the
shared slots (a cross product if there are none). Execution ends with
the distinct head id rows (late materialization): `Answers` builds their
text and `Atom`s only when iterated, so a caller that reads only the
counters, the count or id-row equality builds no text at all.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .costmodel import Estimate, JoinMethod, JoinStrategy
from .engine import Counters, MemoTable, _body_atom, _compile_body, _evaluate
from .model import Atom, Query, Term
from .optimizer import Plan
from .store import _getter


class Answers:
    """The distinct head instantiations of an execution, built on demand.

    Holds one id row per answer (the interned id at each variable
    position of the head), sorted by id. `len()` and equality with
    another `Answers` of the same symbol table and head read only the
    rows; iteration builds the `Atom`s, in the order of their text.
    """

    __slots__ = ("rows", "symbols", "head")
    __hash__ = None

    def __init__(self, rows: tuple[tuple[int, ...], ...], symbols, head):
        self.rows = rows
        self.symbols = symbols
        self.head = head

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Atom]:
        head = self.head
        text = self.symbols.text
        term = {v: Term.const(text(v)) for row in self.rows for v in row}
        # Ranking each id by its text sorts the answers as their text
        # would: an argument is followed by `,` or `)`, which sort below
        # every character that may continue an unquoted constant, and
        # quoted constants are prefix-free.
        by_text = sorted(term, key=lambda v: str(term[v]))
        rank = {v: i for i, v in enumerate(by_text)}
        ranked = [term[v] for v in by_text]
        # `arrange(values + head constants)` is in head argument order.
        head_consts = tuple(t for t in head.args if not t.is_var)
        n_vars = len(head.args) - len(head_consts)
        var_at = iter(range(n_vars))
        const_at = iter(range(n_vars, len(head.args)))
        arrange = _getter([
            next(var_at) if t.is_var else next(const_at) for t in head.args
        ])
        key = rank.__getitem__
        for ranks in sorted(tuple(map(key, row)) for row in self.rows):
            values = tuple(map(ranked.__getitem__, ranks))
            yield Atom(head.predicate, arrange(values + head_consts))

    def __eq__(self, other) -> bool:
        if (isinstance(other, Answers) and other.symbols is self.symbols
                and other.head == self.head):
            return self.rows == other.rows
        if isinstance(other, (Answers, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Answers({list(self)!r})"


@dataclass
class ExecutionReport:
    answers: Answers
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
        # A step reads a sorted batch: each substitution's extensions follow
        # it in ascending id order, so steps call the memo in a fixed order.
        # Rows are distinct, so no duplicates arise. The last batch is only
        # projected, so it is never sorted.
        batch.sort()
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
        batch = out
        per_step.append(
            Counters(
                total.inferred_facts - inferred0, total.eob_accesses - eob0
            )
        )

    head = plan.query.head
    rows: tuple[tuple[int, ...], ...] = ()
    if batch:
        slots = [var_slot[t.value] for t in head.args if t.is_var]
        rows = tuple(sorted(set(map(_getter(slots), batch))))
    return ExecutionReport(
        Answers(rows, base.symbols, head),
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

