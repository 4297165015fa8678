"""Physical evaluation of a plan over the base, step by step.

A fresh memo table backs each execution (or resumes it in the state a
fresh one reaches, see the end) so the reported counters reflect
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

Inside a `shared_prefixes()` scope, an execution resumes from the state
that the previous execution on the same base and query left after their
longest common prefix of (subgoal, strategy) steps. Execution is
deterministic, so that state is the one a fresh memo reaches there, and
every counter is a fresh memo's. Execution only appends to what it
grows: the memo's tables (each complete when its step ends, and never
changed again), its unseen constants, the variable slots and the
per-step counters; and a batch is never changed once built. So the
state after a step is its batch, the lengths of those structures and
the counter totals, and a resume cuts each structure back to its length
after the shared prefix; nothing is copied. A fresh execution is the
same loop started at step 0. Outside a scope nothing is kept; inside
one, an execution that raises leaves nothing behind.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, compress, repeat
from operator import itemgetter, mul
from typing import NamedTuple

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
from .model import Atom, Query
from .optimizer import Plan
from .store import OntologyBase, _getter


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


class _State(NamedTuple):
    """What an execution holds after a step: the step, its batch and
    counters, the lengths of the memo's tables and unseen constants and
    of the variable slots, and the memo's entry and counter totals."""

    atom: Atom | None
    strategy: JoinStrategy | None
    batch: _Batch
    counters: Counters | None
    tables: int
    unseen: int
    slots: int
    entries: int
    inferred: int
    eob: int


_START = _State(None, None, _Batch([()], 0), None, 0, 0, 0, 0, 0, 0)
_FIRST = JoinStrategy(JoinMethod.NESTED_LOOP)  # the first step's strategy


def _cut(grown: dict, length: int):
    """Drop the entries `grown` gained after it had `length` of them."""
    for _ in range(len(grown) - length):
        grown.popitem()


class _Run:
    """An execution's memo and variable slots, and its state before the
    first step and after each step run so far."""

    __slots__ = ("base", "query", "memo", "var_slot", "states")

    def __init__(self, base: OntologyBase, query: Query):
        self.base = base
        self.query = query
        self.memo = MemoTable()
        self.memo.bind(base)
        self.var_slot: dict[str, int] = {}
        self.states = [_START]

    def rewind(self, steps) -> _State:
        """Cut the run back to the state after its longest common prefix
        with the (atom, strategy) `steps`, and return that state."""
        n = 0
        for state, step in zip(self.states[1:], steps):
            if (state.atom, state.strategy) != step:
                break
            n += 1
        del self.states[n + 1:]
        state = self.states[n]
        memo = self.memo
        _cut(memo.tables, state.tables)
        _cut(memo._unseen, state.unseen)
        _cut(self.var_slot, state.slots)
        memo._entries = state.entries
        return state


class _Scope:
    """The run of the last execution in a `shared_prefixes` scope."""

    __slots__ = ("run",)

    def __init__(self):
        self.run: _Run | None = None


_SCOPE: ContextVar[_Scope | None] = ContextVar("shared_prefixes", default=None)


@contextmanager
def shared_prefixes():
    """Let each `execute` in the block resume from the previous one.

    An execution on the same base and query as the previous one starts
    after the longest prefix of (subgoal, strategy) steps the two share,
    from the state that prefix left; its answers and counters are those
    of a fresh execution. The block keeps the last execution's memo and
    batches until it ends; a different base or query, or an execution
    that raises, drops them."""
    token = _SCOPE.set(_Scope())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def execute(base, plan: Plan) -> EvaluationResult:
    """Evaluate the plan's ordering with its per-step strategies.

    A step whose batch would pass `MAX_BATCH_ROWS` substitutions, or
    whose tables would pass the memo's entry cap, raises
    `EngineLimitError` naming the step (from 1) and the limit. Inside
    `shared_prefixes()`, steps shared with the previous execution are
    not run again."""
    steps = list(zip(plan.atoms, (_FIRST, *plan.strategies)))
    scope = _SCOPE.get()
    run = None
    if scope is not None:
        # taken out, so an execution that raises leaves no state behind
        run, scope.run = scope.run, None
    if run is None or run.base is not base or run.query != plan.query:
        run, state = _Run(base, plan.query), _START
    else:
        state = run.rewind(steps)
    memo, var_slot, states = run.memo, run.var_slot, run.states
    done = len(states) - 1
    total = Counters(state.inferred, state.eob)
    batch = state.batch
    try:
        for step, (atom, strategy) in enumerate(steps[done:], start=done + 1):
            if not batch:
                counters = Counters()
            else:
                inferred0, eob0 = total.inferred_facts, total.eob_accesses
                if strategy.method is JoinMethod.NESTED_LOOP:
                    compiled = compile_query(memo, [atom], var_slot)
                    batch = _Batch(
                        evaluate(base, memo, total, compiled, batch.expanded()),
                        len(var_slot),
                    )
                else:
                    batch = _equi_join(base, memo, total, atom, batch, var_slot)
                counters = Counters(
                    total.inferred_facts - inferred0,
                    total.eob_accesses - eob0,
                )
            states.append(_State(
                atom, strategy, batch, counters, len(memo.tables),
                len(memo._unseen), len(var_slot), memo._entries,
                total.inferred_facts, total.eob_accesses,
            ))
    except EngineLimitError as err:
        err.args = (f"plan step {step}: {err}",)
        raise

    if scope is not None:
        scope.run = run
    return EvaluationResult(
        Answers.of(base.symbols, plan.query.head, var_slot, batch.expanded()),
        total.inferred_facts, total.eob_accesses,
        [s.counters for s in states[1:]],
    )
