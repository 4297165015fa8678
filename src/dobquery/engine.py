"""Top-down rule evaluation with call-pattern tabling.

Every intensional call is canonicalized into a call pattern (constants
plus positional placeholders for free arguments) and answered from a
per-pattern table. A call whose rules read only complete tables is
complete after one pass over its rules. A call that read an active
(incomplete) table, itself included, is re-expanded until its table
stops growing, and it stays active while a table it read is active; the
outermost active call then re-expands the whole active group until no
table grows and marks the group completed (SLG-style completion, Chen &
Warren, JACM 1996). This terminates on cyclic subclass/import graphs and
never returns an incomplete answer set.

The one-pass call is the common one (building a catalog, nearly every
table completes in one pass and stays empty), so it is the cheap path: a
step reads a completed table straight from the memo without entering a
call, a call builds a dependency set only when it reads an active table,
and no call keeps cleanup of its own: an evaluation that raises drops
the active tables and the dependency stack at its entry (`evaluate`).

The built-in rule program is compiled once per process and call shape
(which arguments are constants and which free arguments repeat), shared
by every memo and base, into steps over substitution tuples: a
substitution holds the values bound so far in binding order, so a step
reads bound variables by position and appends the ones it binds. Tables
hold the call's free values, in placeholder order: a row of
`areSubClasses(c,?0)` is `(x,)`, not `(c, x)`, so the constants and
repeated variables the canonical pattern encodes are stored once per
table, not once per answer (substitution factoring; Ramakrishnan, Rao,
Sagonas, Swift & Warren, ICLP 1995). A row is then exactly the values
the calling step binds, so the step appends it to its substitution
unchanged. An EOB step makes one lookup per substitution in the base's
hash probe for its bound positions, and a rule's last step builds head
tuples straight from the rows it matched; a recursive rule whose head
values are its last call's row passes that sub-table on as it is.

Callers outside the engine use only its public core: `compile_query`
turns query atoms into steps, interning their constants through a memo,
and `evaluate` runs steps on a batch of substitutions. `solve`,
`solve_sequence` and the executor are built on these two, and `solve`
and the executor return one `EvaluationResult` whose `Answers` hold the
distinct head id rows and build text only when iterated.

Two work counters are carried through evaluation:
  * inferred facts  - one per distinct answer added to a table; a memo
    hit contributes nothing,
  * EOB accesses    - one per extensional fact returned by a match.
Their sum is the actual evaluation cost used by the experiments. Each
call pattern is expanded once unless it is part of a recursive group, so
the counters carry no re-evaluation of complete tables.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import itemgetter
from typing import Callable

from .model import (
    Atom,
    DobError,
    PredicateKind,
    SchemaError,
    Term,
    builtin_iob_program,
    schema_for,
)
from .store import OntologyBase, _getter, _same_rows

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

DEFAULT_MAX_TABLE_ENTRIES = 1_000_000

# Internal argument encoding: int = interned constant id, str = variable.
# Canonical call patterns use reserved '?<n>' variables, numbered by first
# occurrence, so alpha-equivalent calls share one table.


class EngineLimitError(DobError):
    """The tabling store exceeded its configured entry cap."""


@dataclass
class Counters:
    inferred_facts: int = 0
    eob_accesses: int = 0

    @property
    def actual_cost(self) -> int:
        return self.inferred_facts + self.eob_accesses


class Answers:
    """The distinct instantiations of a head, built on demand.

    Holds one id row per answer (the interned id at each variable
    position of the head), sorted by id. `len()` and equality with
    another `Answers` of the same symbol table and head read only the
    rows; iteration builds the `Atom`s, in the order of their text.
    """

    __slots__ = ("rows", "symbols", "head")
    __hash__ = None

    def __init__(self, rows: tuple[tuple[int, ...], ...], symbols, head: Atom):
        self.rows = rows
        self.symbols = symbols
        self.head = head

    @classmethod
    def of(cls, symbols, head: Atom, var_slot: dict[str, int], substs):
        """The answers `head` takes over complete substitutions `substs`,
        whose variables sit at the slots of `var_slot`."""
        rows: tuple[tuple[int, ...], ...] = ()
        if substs:
            slots = [var_slot[t.value] for t in head.args if t.is_var]
            rows = tuple(sorted(set(map(_getter(slots), substs))))
        return cls(rows, symbols, head)

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
class EvaluationResult:
    """Answers and work counters of one evaluation; `per_step` holds the
    counters of each body atom, in evaluation order."""

    answers: Answers
    inferred_fact_count: int
    eob_access_count: int
    per_step: list[Counters]

    @property
    def actual_cost(self) -> int:
        return self.inferred_fact_count + self.eob_access_count


@dataclass
class _CompiledRule:
    head_vars: tuple[str, ...]
    body: tuple[tuple[str, tuple[str, ...], bool], ...]  # (pred, args, is_eob)


@dataclass(frozen=True, slots=True)
class _Step:
    """One body atom, evaluated on substitutions of a fixed length n.

    For an IOB atom, `args(s + extras)` is the call's argument tuple:
    constants and bound variables as ids, free variables as their
    canonical placeholders; a row of its table holds the values of the
    variables the atom binds, in slot order. For an EOB atom it holds
    only the ids at the positions of its constants and earlier bound
    variables: the key of the base's probe `access`, (pred, those
    positions). EOB only: `new(row)` holds the values of the variables
    the atom binds, in slot order, and `same` pairs the row positions of
    the atom's repeated free variables.
    """

    pred: str
    eob: bool
    extras: tuple
    args: Callable[[tuple], tuple]
    new: Callable[[tuple], tuple] | None
    same: tuple[tuple[int, int], ...]
    access: tuple[str, tuple[int, ...]]  # EOB: the probe's key in the base
    shape: tuple  # IOB: the call shape of `args`


def _compile_body(body, var_slot: dict[str, int]) -> tuple[_Step, ...]:
    """Compile (pred, args, is_eob) atoms for left-to-right evaluation.

    `var_slot` maps the variables bound before the first atom to their
    slots; it is extended in place with each variable the body binds.
    """
    steps = []
    for pred, args, eob in body:
        n = len(var_slot)
        extras: list = []
        index: list[int | None] = []
        shape: list = []
        new: list[int] = []
        same: list[tuple[int, int]] = []
        bound: list[int] = []
        first: dict[str, int] = {}  # free variable -> first position here
        for pos, a in enumerate(args):
            if isinstance(a, int):
                index.append(n + len(extras))
                extras.append(a)
                shape.append(None)
                bound.append(pos)
            elif a in first:
                index.append(index[first[a]])
                shape.append(shape[first[a]])
                same.append((first[a], pos))
            elif a in var_slot:
                index.append(var_slot[a])
                shape.append(None)
                bound.append(pos)
            else:
                first[a] = pos
                var_slot[a] = len(var_slot)
                new.append(pos)
                if eob:
                    index.append(None)
                    shape.append(None)
                    continue
                index.append(n + len(extras))
                placeholder = f"?{len(first) - 1}"
                extras.append(placeholder)
                shape.append(placeholder)
        if eob:
            args_of = _getter([index[pos] for pos in bound])
        else:
            args_of = _getter(index)
        steps.append(
            _Step(
                pred, eob, tuple(extras), args_of,
                _getter(new) if eob else None,
                tuple(same) if eob else (), (pred, tuple(bound)), tuple(shape),
            )
        )
    return tuple(steps)


def _fused_head(head, last, var_slot: dict[str, int]):
    """Function `emit(s, rows)` building a rule's head tuples from a
    substitution `s` before the last body atom `last` = (pred, args,
    is_eob) and the rows it matched there, without extending `s`.

    An EOB row holds the atom's arguments, so a head variable in it is
    read from the row at its position. An IOB row holds the values of
    the variables the atom binds, in first-occurrence order, so only
    those are read from the row. Any other head variable is read from
    its slot in `s`. When every head value comes from the row in row
    order, the rows are the head tuples themselves.
    """
    _, args, eob = last
    if eob:
        row_vars = list(args)
    else:
        row_vars = [a for a in dict.fromkeys(args) if a not in var_slot]
    sources = [
        (True, row_vars.index(v)) if v in row_vars else (False, var_slot[v])
        for v in head
    ]
    at = [i for _, i in sources]
    if all(from_row for from_row, _ in sources):
        if at == list(range(len(row_vars))):
            return lambda s, rows: rows
        get = _getter(at)
        return lambda s, rows: map(get, rows)
    if not any(from_row for from_row, _ in sources):
        # Only an IOB atom binding no head variable gets here (an EOB
        # rule's last atom holds every head variable): its rows, however
        # many, give one head tuple.
        get = _getter(at)
        return lambda s, rows: (get(s),)
    parts = [(from_row, itemgetter(i)) for from_row, i in sources]

    def emit(s, rows):
        return zip(*[
            map(get, rows) if from_row else repeat(get(s))
            for from_row, get in parts
        ])

    return emit


@dataclass(frozen=True, slots=True)
class _Plan:
    """The rules of one call shape, compiled to slot steps.

    `bound(args)` is the initial substitution of a call: its constants,
    in argument order. Each rule pairs its steps with the function
    building the call's table rows, the values of its distinct
    placeholders, from the last step's matches (`_fused_head`).
    """

    bound: Callable[[tuple], tuple]
    rules: tuple[tuple[tuple[_Step, ...], Callable], ...]


def _compile_rules() -> dict[str, list[_CompiledRule]]:
    """The built-in rule program as (pred, args, is_eob) bodies, by head.

    Its heads use distinct variables and its rules hold no constants, so
    the compiled program holds no ids and serves every base.
    """
    rules: dict[str, list[_CompiledRule]] = {}
    for rule in builtin_iob_program():
        body = tuple(
            (
                atom.predicate,
                tuple(t.value for t in atom.args),
                schema_for(atom.predicate).kind is PredicateKind.EOB,
            )
            for atom in rule.body
        )
        rules.setdefault(rule.head.predicate, []).append(
            _CompiledRule(tuple(t.value for t in rule.head.args), body)
        )
    return rules


_RULES = _compile_rules()


@cache
def _plan(pred: str, shape: tuple) -> _Plan:
    """Rules of `pred` compiled for calls of one shape.

    A shape marks each constant argument None and each free argument
    with its placeholder. Constant arguments are the first slots; a
    head variable at a free argument is renamed to its placeholder, so
    head variables sharing a placeholder become one variable. The head
    each rule builds is the distinct placeholders, in order.
    """
    head = list(dict.fromkeys(p for p in shape if p is not None))
    rules = []
    for rule in _RULES.get(pred, []):
        var_slot: dict[str, int] = {}
        alias: dict[str, str] = {}
        for var, placeholder in zip(rule.head_vars, shape):
            if placeholder is None:
                var_slot[var] = len(var_slot)
            else:
                alias[var] = placeholder
        body = [
            (b_pred, tuple(alias.get(a, a) for a in b_args), b_eob)
            for b_pred, b_args, b_eob in rule.body
        ]
        steps = _compile_body(body[:-1], var_slot)
        emit = _fused_head(head, body[-1], var_slot)
        steps += _compile_body(body[-1:], var_slot)
        rules.append((steps, emit))
    return _Plan(
        _getter([i for i, p in enumerate(shape) if p is None]), tuple(rules)
    )


class MemoTable:
    """Answer tables keyed by canonical call pattern, tied to one base."""

    def __init__(self, max_entries: int = DEFAULT_MAX_TABLE_ENTRIES):
        self.max_entries = max_entries
        self.tables: dict[tuple, dict[tuple[int, ...], None]] = {}
        self.completed: dict[tuple, dict[tuple[int, ...], None]] = {}
        self._active: dict[tuple, _Plan] = {}
        self._dep_stack: list[set[tuple] | None] = []
        self._revision = 0
        self._entries = 0
        self._base: OntologyBase | None = None
        self._unseen: dict[str, int] = {}

    def bind(self, base: OntologyBase):
        if self._base is None:
            self._base = base
        elif self._base is not base:
            raise SchemaError("a MemoTable cannot be shared across bases")

    def intern_const(self, text: str) -> int:
        """Id of a constant without mutating the shared symbol table.

        Constants never seen by the base get a memo-local negative id;
        they cannot match any fact or derived answer.
        """
        cid = self._base.symbols.lookup(text)
        if cid is not None:
            return cid
        local = self._unseen.get(text)
        if local is None:
            local = -(len(self._unseen) + 1)
            self._unseen[text] = local
        return local

    def _drop_active(self):
        """Forget the tables an aborted evaluation left active.

        Completed tables stay: each was saturated before it completed.
        An active table may lack answers, so reusing it would be wrong.
        """
        for key in self._active:
            self._entries -= len(self.tables.pop(key))
        self._active.clear()
        self._dep_stack.clear()

    def _note_dependency(self, key: tuple):
        """Record that the innermost running call read active `key`."""
        stack = self._dep_stack
        if stack:
            if stack[-1] is None:
                stack[-1] = {key}
            else:
                stack[-1].add(key)

    def _added(self, count: int, counters: Counters):
        """Account for `count` new answers just added to a table."""
        self._entries += count
        if self._entries > self.max_entries:
            raise EngineLimitError(
                f"tabling store exceeded {self.max_entries} entries"
            )
        self._revision += count
        counters.inferred_facts += count


def _run(base, memo, counters, steps, substs, emit=None):
    """Extensions of `substs` satisfying `steps`, left to right.

    Each step is applied to every substitution before the next step runs
    (sideways information passing over the whole batch). With `emit`, the
    result is instead a list of chunks of head tuples: an IOB last step
    gives `emit(s, rows)` for each substitution `s` and the rows it
    matched, an EOB last step one list of them all. A call with a
    completed table is answered from it here, without `_solve_call`.
    """
    last = steps[-1] if emit is not None else None
    for step in steps:
        if not substs:
            break
        out = []
        args, extras, new = step.args, step.extras, step.new
        fused = step is last
        if step.eob:
            probe = base.probes.get(step.access)
            if probe is None:
                probe = base.probe_index(*step.access)
            get, same = probe.get, step.same
            for s in substs:
                rows = get(args(s + extras), ())
                if same:
                    rows = _same_rows(rows, same)
                if rows:
                    out.extend(
                        emit(s, rows) if fused
                        else map(s.__add__, map(new, rows))
                    )
            # `emit` also makes one tuple per row
            counters.eob_accesses += len(out)
            if fused and out:
                out = [out]
        else:
            pred, shape, completed = step.pred, step.shape, memo.completed
            for s in substs:
                key = (pred, args(s + extras))
                rows = completed.get(key)
                if rows is None:
                    rows = _solve_call(base, memo, counters, key, shape)
                if rows:
                    if fused:
                        out.append(emit(s, rows))
                    else:
                        out.extend(map(s.__add__, rows))
        substs = out
    return substs


def evaluate(base, memo, counters, steps, substs):
    """Extensions of `substs` satisfying compiled `steps`, from outside
    any tabled call; the work done is added to `counters`.

    If evaluation raises (say, at the entry cap), the tables it left
    active are dropped and the dependency stack is cleared, so the memo
    can still be used; tabled calls keep no cleanup of their own.
    """
    try:
        return _run(base, memo, counters, steps, substs)
    except BaseException:
        memo._drop_active()
        raise


def _expand(base, memo, counters, key, plan: _Plan):
    """Run every rule of a call pattern once, adding new answers."""
    table = memo.tables[key]
    init = [plan.bound(key[1])]
    for steps, emit in plan.rules:
        answers = _run(base, memo, counters, steps, init, emit)
        if answers:
            size = len(table)
            for chunk in answers:
                # a completed sub-table passed through is a table already
                table.update(
                    chunk if type(chunk) is dict else dict.fromkeys(chunk)
                )
            memo._added(len(table) - size, counters)


def _solve_call(base, memo, counters, key, shape):
    """Answers of a canonical call pattern of the given shape that has no
    completed table.

    A table completed here is returned itself; an active one as a
    snapshot list, since evaluation may still add to it. The call's
    frame on the dependency stack stays None until it reads an active
    table, so a call that read only complete tables completes after one
    pass with no set built.
    """
    if key in memo._active:
        memo._note_dependency(key)
        return list(memo.tables[key])

    plan = _plan(key[0], shape)
    memo.tables[key] = {}
    memo._active[key] = plan
    stack = memo._dep_stack
    stack.append(None)
    while True:
        rev = memo._revision
        _expand(base, memo, counters, key, plan)
        deps = stack[-1]
        # One pass suffices when every table read was complete.
        if (deps is None or memo._revision == rev
                or all(d in memo.completed for d in deps)):
            break
    stack.pop()

    if deps is not None:
        deps = {d for d in deps if d != key and d not in memo.completed}
    if not deps:
        memo.completed[key] = memo.tables[key]
        del memo._active[key]
    elif next(iter(memo._active)) == key:
        # Outermost call of a recursive group: saturate the whole group,
        # re-running members whose inputs grew after they stabilized.
        while True:
            rev = memo._revision
            for other, other_plan in list(memo._active.items()):
                stack.append(None)
                _expand(base, memo, counters, other, other_plan)
                stack.pop()
            if memo._revision == rev:
                break
        for other in memo._active:
            memo.completed[other] = memo.tables[other]
        memo._active.clear()
    else:
        memo._note_dependency(key)
        return list(memo.tables[key])
    return memo.tables[key]


def compile_query(memo, atoms, var_slot: dict[str, int]) -> tuple[_Step, ...]:
    """Compile query atoms for left-to-right evaluation on `memo`'s base.

    Constants are interned through the memo; `var_slot` is extended in
    place with each variable the atoms bind (see `_compile_body`).
    """
    body = []
    for atom in atoms:
        schema = schema_for(atom.predicate, len(atom.args))
        args = tuple(
            t.value if t.is_var else memo.intern_const(t.value)
            for t in atom.args
        )
        body.append((atom.predicate, args, schema.kind is PredicateKind.EOB))
    return _compile_body(body, var_slot)


def _solve_body(base, atoms, memo):
    """Complete substitutions of `atoms` left to right, their variables'
    slots and the counters of the evaluation."""
    if memo is None:
        memo = MemoTable()
    memo.bind(base)
    counters = Counters()
    var_slot: dict[str, int] = {}
    steps = compile_query(memo, atoms, var_slot)
    return evaluate(base, memo, counters, steps, [()]), var_slot, counters


def solve(
    base: OntologyBase, atom: Atom, memo: MemoTable | None = None
) -> EvaluationResult:
    """All valid instantiations of `atom` in the minimal model of the base.

    The memo may be shared across calls against the same base; repeated
    calls answered from completed tables add no inferred facts.
    """
    substs, var_slot, counters = _solve_body(base, [atom], memo)
    return EvaluationResult(
        Answers.of(base.symbols, atom, var_slot, substs),
        counters.inferred_facts, counters.eob_accesses, [counters],
    )


def solve_sequence(
    base: OntologyBase, atoms, *, memo: MemoTable | None = None
):
    """Evaluate a conjunction left to right under nested-loop semantics.

    Returns the complete substitutions (variable name -> constant text)
    and the accumulated counters.
    """
    atoms = list(atoms)
    if not atoms:
        raise SchemaError("solve_sequence requires at least one atom")
    substs, var_slot, counters = _solve_body(base, atoms, memo)
    text = base.symbols.text
    return [dict(zip(var_slot, map(text, s))) for s in substs], counters
