"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution so the reported counters reflect
the chosen strategies honestly. The batch of partial answers holds the
engine's substitution tuples: interned ids, one slot per variable in
binding order. Every strategy runs its subgoal through the engine's
public core, `compile_query`, `evaluate` and `check_batch`, and nothing
else of the engine. Nested loop applies the compiled step to the whole
batch with sideways variables bound, in the order the previous step
produced it, as `solve_sequence` does, so the two call the memo in the
same order and count the same work for the same ordering; hash join
runs the subgoal once, compiled with only its own constants bound, and
equi-joins the result with the batch on the shared slots (a cross
product if there are none).
A hash join keeps one hash table of the subgoal's rows, keyed by the
shared variable itself when there is one, and probes the whole batch
with it at once. A step that binds no new variable is a semi-join: it
keeps the table's key set and filters the batch by it. The batch keeps
its order and the subgoal is solved and counted once, so the counters
do not depend on how the batch is probed.
A hash join is deferred: the batch keeps the rows built so far (the
prefix rows) and, per deferred step, one match list per prefix row, the
table rows that row joins with. A prefix row stands for the product of
its match-list lengths, its count, and a row whose count is 0 is
dropped. A later hash join whose key reads only prefix slots is
deferred in turn, and a semi-join on prefix slots filters the prefix
rows with their lists. Any other step first expands the batch, in the
order eager steps would have built it: by prefix row, then by the first
deferred step's row, then the next. Those are a nested-loop step, a
step whose key reads a deferred slot, and the head projection.
No step's batch may pass the engine's `MAX_BATCH_ROWS` rows, and each
step is sized before it is built: a nested-loop step is one `evaluate`,
which sizes its own output, and a hash join adds up each row's match
count times the row's count, through the same `check_batch`. That is
the exact size of the batch eager steps build, so a deferred step is
refused at the same count, with none of its rows built. A semi-join
cannot grow the batch, so it needs no check.
Past the limit, execution raises `EngineLimitError`, and `execute`
names the plan step in it, as it does for the memo's entry cap. The
limit is on the batch, which keeps every variable, not on the answers:
a head of few variables over a big batch is refused too.
Execution ends with the engine's `Answers` of the query head and an
`EvaluationResult` with per-step counters, as `solve` does.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter, mul

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


class _Batch:
    """The substitutions of the steps run so far, some steps deferred.

    `rows` hold the prefix rows, whose slots are those below `width`. A
    deferred equi-join step keeps in `lists` one match list per prefix
    row: the subgoal rows that row joins with. A substitution is a prefix
    row followed by one row of each of its match lists, so a prefix row
    stands for `counts`, the product of their lengths. A row whose count
    is 0 is dropped, so the batch is empty when it has no prefix row."""

    __slots__ = ("rows", "width", "lists", "counts")

    def __init__(self, rows, width, lists=(), counts=None):
        self.rows = rows
        self.width = width
        self.lists = lists
        self.counts = counts  # None: one substitution per row

    def __bool__(self) -> bool:
        return bool(self.rows)

    def expanded(self) -> list[tuple]:
        """The substitutions, in the order eager steps build them: by
        prefix row, then by the row of each deferred step in turn."""
        rows, lists = self.rows, self.lists
        reps = None  # rows built so far per prefix row: one each
        for i, matches in enumerate(lists):
            per_row = matches
            if reps is not None:  # each built row takes its prefix's list
                per_row = chain.from_iterable(map(repeat, matches, reps))
            rows = [s + r for s, rs in zip(rows, per_row) for r in rs]
            if i + 1 < len(lists):
                lengths = map(len, matches)
                if reps is not None:
                    lengths = map(mul, reps, lengths)
                reps = list(lengths)
        return rows

    def joined(self, matches, counts) -> _Batch:
        """The batch with one more deferred step: `matches` holds its
        match list of each prefix row and `counts` the rows' new products.
        Rows that match nothing are dropped."""
        batch = _Batch(self.rows, self.width, (*self.lists, matches), counts)
        return batch.filtered(counts) if 0 in counts else batch

    def filtered(self, keep) -> _Batch:
        """The prefix rows flagged in `keep`, with their match lists."""
        rows = list(compress(self.rows, keep))
        if self.counts is None:
            return _Batch(rows, self.width)
        counts = list(compress(self.counts, keep))
        lists = [list(compress(rs, keep)) for rs in self.lists]
        return _Batch(rows, self.width, lists, counts)


def _equi_join(base, memo, counters, atom, batch, var_slot):
    """Join `batch` with the atom's answers, solving it once.

    The join is deferred: the result keeps the batch's prefix rows and
    adds the atom's match list of each. The batch is expanded first when
    the step's key reads a deferred slot."""
    own: dict[str, int] = {}
    steps = compile_query(memo, [atom], own)
    shared = [v for v in own if v in var_slot]
    ext = [i for v, i in own.items() if v not in var_slot]
    if any(var_slot[v] >= batch.width for v in shared):
        batch = _Batch(batch.expanded(), len(var_slot))
    if len(shared) == 1:  # key by the scalar, not a 1-tuple
        row_key = itemgetter(own[shared[0]])
        subst_key = itemgetter(var_slot[shared[0]])
    else:
        row_key = _getter([own[v] for v in shared])
        subst_key = _getter([var_slot[v] for v in shared])
    row_ext = _getter(ext)
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    rows = evaluate(base, memo, counters, steps, [()])
    keys = map(subst_key, batch.rows)
    if not ext:
        # A semi-join: evaluated rows are distinct
        # (test_evaluated_rows_are_distinct), so a key has one row and a
        # matching substitution is kept exactly once. It cannot grow the
        # batch.
        has = set(map(row_key, rows)).__contains__
        return batch.filtered(list(map(has, keys)))
    table: dict[object, list[tuple]] = {}
    for row in rows:
        table.setdefault(row_key(row), []).append(row_ext(row))
    matches = list(map(table.get, keys, repeat(())))
    # size the step's output; none of it is built here
    lengths = list(map(len, matches))
    if batch.counts is not None:
        lengths = list(map(mul, batch.counts, lengths))
    check_batch(atom, sum(lengths))
    return batch.joined(matches, lengths)


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
    batch = _Batch([()], 0)
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
                batch = _Batch(
                    evaluate(base, memo, total, steps, batch.expanded()),
                    len(var_slot),
                )
            else:
                batch = _equi_join(base, memo, total, atom, batch, var_slot)
            per_step.append(
                Counters(
                    total.inferred_facts - inferred0, total.eob_accesses - eob0
                )
            )
    except EngineLimitError as err:
        err.args = (f"plan step {step}: {err}",)
        raise

    return EvaluationResult(
        Answers.of(base.symbols, plan.query.head, var_slot, batch.expanded()),
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

