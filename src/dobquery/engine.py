"""Top-down rule evaluation with call-pattern tabling.

Every intensional call is canonicalized into a call pattern (constants
plus positional placeholders for free arguments) and answered from a
per-pattern table. The memo keeps one table dict, `memo.tables`, and a
table is complete if and only if its call is not in `memo._active`,
which plays the completion stack of the SLG-WAM. A call whose rules read
only complete tables is complete after one pass over its rules. A call
that read an active (incomplete) table, itself included, stays active
after its pass; the query step that made the outermost call then re-runs
every active call until no table grows and completes the whole group by
clearing the active set (SLG-style completion, Chen & Warren, JACM 1996,
by naive iteration, Bancilhon & Ramakrishnan, 1986). This terminates on
cyclic subclass/import graphs and never returns an incomplete answer set.

The one-pass call is the common one (building a catalog, every table
completes in one pass and most stay empty), so it is the cheap
path: a call with a complete table is read straight from the memo, and a
rule kernel completes a one-pass call in place (early completion, as in
the SLG-WAM; Sagonas & Swift, TOPLAS 1998). It creates the callee's
table, marks it active and runs the callee's kernel directly. A kernel
returns None if it read only complete tables, and its call then leaves
the active set, or True if it read an active table, and its call stays
active. A call made in a kernel never leads a recursive group, since its
caller is still running, so is active and is older; only a query step's
call can, so the one fixpoint loop is in `evaluate`. No call keeps
cleanup of its own: an evaluation that raises drops the active tables at
its entry (`evaluate`).

The built-in rule program is compiled once per process into rule
kernels: one generated Python function per IOB predicate and call shape
(which arguments are constants and which free arguments repeat), shared
by every memo and base, since its code names no constant and reads the
call's constants from the call's key. A kernel runs every rule once, as
nested loops over the rule's EOB atoms with its variables in locals:
each EOB atom makes one lookup in the base's hash probe for its bound
positions, and the rule's last atom, its one tabled call if it has one,
gives the head rows (data-centric code generation, Neumann, VLDB 2011;
specialised Datalog code, Jordan, Scholz & Subotic, CAV 2016). Three
exceptions are picked per call shape by `_rules_for`. A transitive
closure whose last argument is free and occurs once in the call, such
as `areSubClasses(c,?0)`, `areSubClasses(?0,?1)` or
`areStatements(?0,?1,?2)`, runs its recursive rule in the equivalent
left-linear form, whose one IOB atom is the call itself, as a
semi-naive loop over the call's own table (Bancilhon & Ramakrishnan,
1986); else, if its first argument is, such as `areSubClasses(?0,c)` or
`areStatements(?0,?1,b)`, it runs the mirror order over the in-edges.
Each round probes the edge relation once per row the last round added, so
such a call reads no other table, nests no call and completes in one
run, with one inferred fact per answer. And three `areIndividuals`
shapes run some rules in another body order (`_BODY_ORDERS`):
`areIndividuals(?0,c)` runs one rule, and `areIndividuals(i,?0)` all
four of its property rules, with the tabled call first, so each such
call is made once, before the rule's loops, instead of once per row of
a scan; `areIndividuals(i,c)` probes its `allValuesFrom` rule's EOB
atoms bound-first, before the tabled call it still makes last. Each
kernel is compiled under a filename naming it, such as `<dobquery
kernel areStatements(b,b,?0)>`, so tracebacks and profilers tell
kernels apart. Tables hold the call's free values, in placeholder
order: a row of `areSubClasses(c,?0)` is `(x,)`, not `(c, x)`, so the
constants and repeated variables the canonical pattern encodes are
stored once per table, not once per answer (substitution factoring;
Ramakrishnan, Rao, Sagonas, Swift & Warren, ICLP 1995). A rule whose
head values are its last call's rows passes that sub-table on as it is.

Query atoms stay step-at-a-time: `compile_query` turns them into steps
over substitution tuples (a substitution holds the values bound so far
in binding order, so a step reads bound variables by position and
appends the ones it binds), and `evaluate` applies each step to the
whole batch before the next. A query body may call an IOB atom before an
EOB one, or several IOB atoms, and the counted cost of a recursive group
depends on the order its members are first called, so nested loops over
a query body would change its counters. A rule kernel keeps the order of
this batch evaluation because a rule has at most one IOB atom, and it is
the last (`_compile_rules` refuses any other written rule), or it is
made once per call of the rule's head: a closure's reordered rule reads
only the call's own table, and a rule of `_BODY_ORDERS` whose tabled
call comes first makes it before any loop, with the call's constants
only. An IOB row of a query step is exactly the values the step binds,
so the step appends it to its substitution unchanged.

Callers outside the engine use only its public core: `compile_query`
turns query atoms into steps, interning their constants through a memo,
and `evaluate` runs steps on a batch of substitutions. `solve`,
`solve_sequence` and the executor are built on these two, and `solve`
and the executor return one `EvaluationResult` whose `Answers` hold the
last `Batch` of substitutions (flat for `solve`, factorized where the
executor deferred steps), build the distinct head id rows from it when
they are first read, and build text only when iterated, from the
base's constant pool, which decodes each constant once per base. One
bound holds for all of them: each step is sized before it is built and
refused past `MAX_BATCH_ROWS` substitutions (`check_batch`).

Two work counters are carried through evaluation:
  * inferred facts  - one per distinct answer added to a table; a memo
    hit contributes nothing,
  * EOB accesses    - one per extensional fact returned by a match.
Their sum is the actual evaluation cost used by the experiments. A call
pattern is expanded once, and a member of a recursive group once more per
round of its query step's loop, so the counters carry no re-evaluation
of complete tables.
"""

from __future__ import annotations

import linecache
import sys
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import mul
from typing import Callable, NamedTuple

from .model import (
    Atom,
    DobError,
    PredicateKind,
    Rule,
    SchemaError,
    _r,
    builtin_iob_program,
    schema_for,
)
from .store import OntologyBase, _getter, _same_rows

# Each nested call of CPython 3.10 also takes C stack, which an 8 MB
# stack runs out of at about 20,000 nested calls; 3.11 and later do not.
sys.setrecursionlimit(max(sys.getrecursionlimit(),
                          100_000 if sys.version_info >= (3, 11) else 10_000))

# Most answers a memo's tables may hold in all, and most substitutions
# an evaluation step may make; both are read at call time.
MAX_TABLE_ENTRIES = 1_000_000
MAX_BATCH_ROWS = 1_000_000

# Internal argument encoding: int = interned constant id, str = variable.
# Canonical call patterns use reserved '?<n>' variables, numbered by first
# occurrence, so alpha-equivalent calls share one table.


class EngineLimitError(DobError):
    """The tabling store would pass `MAX_TABLE_ENTRIES` answers, an
    evaluation step `MAX_BATCH_ROWS` substitutions, or tabled calls the
    interpreter's recursion limit."""


def check_batch(atom, rows: int):
    """Refuse a step of `atom` that makes `rows` substitutions, past
    `MAX_BATCH_ROWS`, before it builds them."""
    if rows > MAX_BATCH_ROWS:
        raise EngineLimitError(
            f"{atom} makes at least {rows} rows, over the batch limit of"
            f" {MAX_BATCH_ROWS}"
        )


@dataclass
class Counters:
    inferred_facts: int = 0
    eob_accesses: int = 0

    @property
    def actual_cost(self) -> int:
        return self.inferred_facts + self.eob_accesses


class Batch:
    """The substitutions of the query steps run so far, in factorized
    form (Olteanu & Závodný, TODS 2015).

    `rows` hold the prefix rows, whose slots are those below `width`. A
    deferred equi-join step keeps in `lists` one match list per prefix
    row: the subgoal rows that row joins with. A substitution is a prefix
    row followed by one row of each of its match lists, so a prefix row
    stands for `counts`, the product of their lengths. A row whose count
    is 0 is dropped, so the batch is empty when it has no prefix row. A
    batch with no deferred step is flat: its rows are its substitutions.
    A batch is never changed once built."""

    __slots__ = ("rows", "width", "lists", "counts")

    def __init__(self, rows, width, lists=(), counts=None):
        self.rows = rows
        self.width = width
        self.lists = lists
        self.counts = counts  # None: one substitution per row

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __len__(self) -> int:
        """The number of substitutions, read without building them."""
        return len(self.rows) if self.counts is None else sum(self.counts)

    def expanded(self, project=None) -> list[tuple]:
        """The substitutions, in the order eager steps build them: by
        prefix row, then by the row of each deferred step in turn. Given
        `project`, each is passed through it as the last step builds it,
        so no list of whole substitutions is made beside the projected
        one."""
        rows, lists = self.rows, self.lists
        reps = None  # rows built so far per prefix row: one each
        for i, matches in enumerate(lists):
            per_row = matches
            if reps is not None:  # each built row takes its prefix's list
                per_row = chain.from_iterable(map(repeat, matches, reps))
            if i + 1 == len(lists) and project is not None:
                return [project(s + r) for s, rs in zip(rows, per_row)
                        for r in rs]
            rows = [s + r for s, rs in zip(rows, per_row) for r in rs]
            if i + 1 < len(lists):
                lengths = map(len, matches)
                if reps is not None:
                    lengths = map(mul, reps, lengths)
                reps = list(lengths)
        return rows if project is None else list(map(project, rows))

    def joined(self, matches, counts) -> Batch:
        """The batch with one more deferred step: `matches` holds its
        match list of each prefix row and `counts` the rows' new products.
        Rows that match nothing are dropped."""
        batch = Batch(self.rows, self.width, (*self.lists, matches), counts)
        return batch.filtered(counts) if 0 in counts else batch

    def filtered(self, keep) -> Batch:
        """The prefix rows flagged in `keep`, with their match lists."""
        rows = list(compress(self.rows, keep))
        if self.counts is None:
            return Batch(rows, self.width)
        counts = list(compress(self.counts, keep))
        lists = [list(compress(rs, keep)) for rs in self.lists]
        return Batch(rows, self.width, lists, counts)


class Answers:
    """The distinct instantiations of a head over a batch, built on demand.

    Holds the batch of complete substitutions as it was evaluated,
    factorized if the executor deferred steps, and the head's projection
    of a substitution, fixed when the answers are made. The id rows (the
    interned id at each variable position of the head) are built the
    first time they are read, through `rows`, iteration or equality, by
    one expansion of the batch, which is then dropped. Until then the
    batch is held whole, up to `MAX_BATCH_ROWS` substitutions with their
    match lists, even when the head drops variables and has far fewer
    distinct rows: answers kept unread hold every batch they were made
    from. Substitutions are distinct (test_evaluated_rows_are_distinct),
    so when the head keeps every slot, `len()` is the batch's count and
    builds no row; a head that drops a slot builds its rows to count
    them. `rows` sorts them by id once and keeps that tuple, and equality
    with another `Answers` of the same symbol table and head compares
    those; any other `Answers` compares by its atoms. Iteration builds
    the `Atom`s, in the order of their text, from the constant pool of
    the symbol table: the `Term` the loader interned for each id
    (`SymbolTable.terms`), and its printed text (`printed`), made the
    first time any answer reads that id and shared by every later
    iteration.
    """

    __slots__ = ("symbols", "head", "_batch", "_project", "_full", "_rows",
                 "_sorted")
    __hash__ = None

    def __init__(self, symbols, head: Atom, var_slot: dict[str, int],
                 batch: Batch):
        """The answers `head` takes over the complete substitutions of
        `batch`, whose variables sit at the slots of `var_slot`."""
        self.symbols = symbols
        self.head = head
        self._batch: Batch | None = None
        self._rows: Collection[tuple[int, ...]] = []
        self._sorted: tuple[tuple[int, ...], ...] | None = None
        if batch:  # an empty batch may not have bound every head variable
            self._batch = batch
            slots = [var_slot[t.value] for t in head.args if t.is_var]
            self._full = len(set(slots)) == len(var_slot)
            # None: each substitution is its id row as it is.
            self._project = (None if slots == list(range(len(var_slot)))
                             else _getter(slots))

    def _built(self) -> Collection[tuple[int, ...]]:
        """The id rows in any order, projected from the batch the first
        time they are read; a head that keeps every slot projects no two
        alike."""
        if self._batch is not None:
            rows = self._batch.expanded(self._project)
            self._rows = rows if self._full else set(rows)
            self._batch = None
        return self._rows

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The id rows, sorted by id once, when first read."""
        if self._sorted is None:
            self._sorted = self._rows = tuple(sorted(self._built()))
        return self._sorted

    def __len__(self) -> int:
        if self._batch is None:
            return len(self._rows)
        if self._full:
            return len(self._batch)
        return len(self._built())

    def __iter__(self) -> Iterator[Atom]:
        head = self.head
        term = self.symbols.terms.__getitem__
        printed = self.symbols.printed.__getitem__
        # `arrange(values + head constants)` is in head argument order; a
        # head of variables only takes the values' tuple as it is.
        head_consts = tuple(t for t in head.args if not t.is_var)
        arrange = tuple
        if head_consts:
            n_vars = len(head.args) - len(head_consts)
            var_at = iter(range(n_vars))
            const_at = iter(range(n_vars, len(head.args)))
            arrange = _getter([
                next(var_at) if t.is_var else next(const_at)
                for t in head.args
            ])
        pred = head.predicate
        # Sorting rows by their ids' printed texts sorts the answers as
        # their text would: an argument is followed by `,` or `)`, which
        # sort below every character that may continue an unquoted
        # constant, and quoted constants are prefix-free.
        by_text = sorted(
            self._built(), key=lambda row: tuple(map(printed, row))
        )
        for row in by_text:
            yield Atom(pred, arrange(tuple(map(term, row)) + head_consts))

    def __eq__(self, other) -> bool:
        if (isinstance(other, Answers) and other.symbols is self.symbols
                and other.head == self.head):
            return self.rows == other.rows
        if isinstance(other, Answers):
            return list(self) == list(other)
        return NotImplemented


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
    the atom's repeated free variables. `atom` is the query atom, which
    the batch limit's error names.
    """

    atom: Atom
    pred: str
    eob: bool
    extras: tuple
    args: Callable[[tuple], tuple]
    new: Callable[[tuple], tuple] | None
    same: tuple[tuple[int, int], ...]
    access: tuple[str, tuple[int, ...]]  # EOB: the probe's key in the base
    shape: tuple  # IOB: the call shape of `args`


class _Scan(NamedTuple):
    """An atom's argument positions, against the variables bound before it.

    `bound` holds the positions of constants and bound variables, `new`
    the first position of each variable the atom binds, in order, and
    `same` the (first, later) position pairs of a new variable that
    repeats. `shape` is the atom's call shape: None at a bound position,
    else the placeholder of its variable, numbered by first occurrence.
    """

    bound: tuple[int, ...]
    new: tuple[int, ...]
    same: tuple[tuple[int, int], ...]
    shape: tuple


def _scan(args, bound_vars) -> _Scan:
    """Scan `args` (int = constant id, str = variable) against the
    variables in `bound_vars`. Both `compile_query` and the rule kernels
    (`_kernel_source`) build their code from this one analysis."""
    bound: list[int] = []
    new: list[int] = []
    same: list[tuple[int, int]] = []
    shape: list = []
    first: dict[str, int] = {}  # new variable -> its first position
    for pos, a in enumerate(args):
        if isinstance(a, int) or a in bound_vars:
            bound.append(pos)
            shape.append(None)
        elif a in first:
            same.append((first[a], pos))
            shape.append(shape[first[a]])
        else:
            first[a] = pos
            new.append(pos)
            shape.append(f"?{len(new) - 1}")
    return _Scan(tuple(bound), tuple(new), tuple(same), tuple(shape))


def _compile_rules(program) -> dict[str, list[Rule]]:
    """A rule program's rules, by head predicate.

    A rule kernel runs a body as nested loops over its EOB atoms and
    makes its tabled call in the innermost loop. That keeps the call
    order, and so the counters of a recursive group, of step-by-step
    evaluation only when a body has at most one IOB atom and it is the
    last, so any other rule is refused. The orders `_rules_for` picks per
    call shape are not written rules and keep that call order too: each
    reads only the call's own table, makes its one call first, once per
    call of the head, or keeps that call last (see there). The built-in
    program's heads use distinct variables and its rules hold no
    constants, so its kernels hold no ids and serve every base.
    """
    rules: dict[str, list[Rule]] = {}
    for rule in program:
        if not all(map(_is_eob, rule.body[:-1])):
            raise SchemaError(
                f"rule {rule}: only the last body atom may be intensional"
            )
        rules.setdefault(rule.head.predicate, []).append(rule)
    return rules


def _is_eob(atom: Atom) -> bool:
    return schema_for(atom.predicate).kind is PredicateKind.EOB


_RULES = _compile_rules(builtin_iob_program())


# Body orders per call shape: (pred, shape) -> rules, each a written rule
# of pred with its body in another order, which the kernel for calls of
# that shape runs in its stead. A rule whose first atom is tabled makes
# that one call before its EOB atoms, which it then probes with the
# call's values bound; any other rule keeps its tabled call last.
_BODY_ORDERS = {
    ("areIndividuals", ("?0", None)): (
        _r("areIndividuals(I,C2)", "areSubClasses(C1,C2)",
           "isIndividual(I,C1)"),
    ),
    ("areIndividuals", (None, "?0")): (
        _r("areIndividuals(I,C)", "areStatements(I,P,J)",
           "isOProperty(P,C,R)"),
        _r("areIndividuals(J,C)", "areStatements(I,P,J)",
           "isOProperty(P,D,C)"),
        _r("areIndividuals(I,C)", "areStatements(I,P,J)",
           "isDProperty(P,C)"),
        _r("areIndividuals(J,C)", "areStatements(I,P,J)",
           "allValuesFrom(C1,P,C)", "isIndividual(I,C1)"),
    ),
    ("areIndividuals", (None, None)): (
        _r("areIndividuals(J,C)", "allValuesFrom(C1,P,C)",
           "isIndividual(I,C1)", "areStatements(I,P,J)"),
    ),
}


def _rules_for(pred: str, shape: tuple) -> list[Rule]:
    """The rules the kernel of `pred` runs for calls of `shape`, in the
    written rule order.

    A closure written right-linearly, `p(X,M…,Y) :- e(X,M…,Y)` and
    `p(X,M…,Y) :- G…, e(X,M…,Z), p(Z,M…,Y)` with guards G over M only,
    runs its recursive rule with the call itself as its one IOB atom
    when the call has a lone free end: a last, or else first, argument
    that is a placeholder occurring once in the shape (Naughton,
    Ramakrishnan, Sagiv & Ullman, SIGMOD 1989). With a lone last end it
    runs the equivalent left-linear `p(X,M…,Y) :- G…, p(X,M…,Z),
    e(Z,M…,Y)`; else the mirror order `p(X,M…,Y) :- G…, p(Z,M…,Y),
    e(X,M…,Z)`, whose call has the shape and constants of the call
    itself. If an argument in M is free, the guards follow that call
    instead, since placed first they would bind it and change the call's
    shape; they are then probed once per row of the call's table. The
    forms agree only when these are all of p's rules. A rule of
    `_BODY_ORDERS` replaces the written rule whose body it reorders, for
    its shape only (sideways information passing, Beeri & Ramakrishnan,
    JLP 1991). If its tabled call comes first, that call binds the EOB
    atoms' join values and is made once per call of `pred`, before any
    loop: `areIndividuals(i,?0)` makes at most two `areStatements`
    calls, `(i,?0,?1)` and `(?0,?1,i)`, not one per property. Else its
    EOB atoms come bound-first and its tabled call stays last. Any other
    rules and shapes run as written.
    """
    rules = _RULES.get(pred, [])
    reordered = _BODY_ORDERS.get((pred, shape))
    if reordered:
        return [
            next((n for n in reordered
                  if n.head == r.head and set(n.body) == set(r.body)), r)
            for r in rules
        ]
    lone = [p is not None and shape.count(p) == 1 for p in shape]
    if len(rules) != 2 or len(shape) < 2 or not (lone[0] or lone[-1]):
        return rules
    base, rec = sorted(rules, key=lambda r: len(r.body))
    x, *m, y = rec.head.args
    *guards, step, call = rec.body
    z = call.args[0]
    e = base.body[0].predicate
    if not (
        _distinct_vars(base.head.args) and base.body == (Atom(e, base.head.args),)
        and _distinct_vars((x, *m, y, z))
        and step == Atom(e, (x, *m, z)) and call == Atom(pred, (z, *m, y))
        and all(set(g.args) <= set(m) for g in guards)
    ):
        return rules
    if lone[-1]:
        call, step = Atom(pred, (x, *m, z)), Atom(e, (z, *m, y))
    free_middle = any(shape[1:-1])
    body = (call, *guards, step) if free_middle else (*guards, call, step)
    return [Rule(r.head, body) if r is rec else r for r in rules]


def _distinct_vars(args) -> bool:
    return all(t.is_var for t in args) and len(set(args)) == len(args)


def _tuple(items) -> str:
    """Python source of a tuple display of the expressions `items`."""
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _kernel_source(pred: str, shape: tuple) -> tuple[str, dict, dict]:
    """Source of the kernel of `pred` for calls of `shape`, the globals
    it reads but its callees (row getters `g<i>`), and the global `c<i>`
    it calls each callee by, keyed by the callee's (predicate, shape).

    Each rule runs once, as nested loops over its EOB atoms, with every
    variable in a local: `k<i>` is the constant at call argument i, read
    from the key, `p<n>` the value of placeholder ?n and `v_<name>` any
    other rule variable. An EOB atom makes one lookup in the base's probe
    per binding of the loops around it and counts its rows after the
    repeated-variable filter. The last atom gives the rule's head rows,
    the values of the call's distinct placeholders: an EOB atom from its
    rows, an IOB atom from its call's table; rows that already are the
    head pass through as they are. A rule's head rows are buffered and
    added to the call's table after the rule, with one `memo._added`, so
    a call that reads the active table in mid-rule sees the table as the
    rule began. A closure's reordered rule (`_rules_for`) reads the call
    itself: from there on its loops run in rounds, the first over the
    rows the table holds and each later one over the rows the last round
    added, and each round adds its new rows with one `memo._added`.

    An IOB call looks its table up in `memo.tables`. A call with no
    table gets a fresh one, is marked active and runs its callee's
    kernel `c<i>` directly. A callee that returns None read only
    complete tables, and its call leaves the active set here; one that
    returns True stays active. Then a table whose call is not in
    `memo._active` is complete and read as it is; an active one, found
    so or left so by its callee, is read as a snapshot list, since
    evaluation may still add to it, and sets `deps`, the kernel's
    return value, to True.
    """
    head = [f"p{p[1:]}" for p in dict.fromkeys(p for p in shape if p)]
    getters: dict[str, Callable] = {}
    callees: dict[tuple, str] = {}  # (pred, shape) of a call -> its global
    lines = ["def kernel(base, memo, counters, key):"]
    if None in shape:
        consts = [f"k{i}" if p is None else "_" for i, p in enumerate(shape)]
        lines.append(f"    {_tuple(consts)} = key[1]")
    lines += [
        "    tables = memo.tables",
        "    table = tables[key]",
        "    active = memo._active",
        "    probes = base.probes",
        "    eob = 0",
        "    deps = None",
    ]
    consts = [f"k{i}" for i, p in enumerate(shape) if p is None]
    for rule in _rules_for(pred, shape):
        local = {
            t.value: f"k{i}" if p is None else f"p{p[1:]}"
            for i, (t, p) in enumerate(zip(rule.head.args, shape))
        }
        bound = set(consts)
        lines.append(f"    # {rule}")
        loops: list[str] = []
        indent = "    "
        rounds = None  # indent of the delta loop of a left-linear rule
        for j, atom in enumerate(rule.body):
            b_pred = atom.predicate
            b_args = tuple(
                local.get(t.value, f"v_{t.value}") for t in atom.args
            )
            scan = _scan(b_args, bound)
            bound.update(b_args[pos] for pos in scan.new)
            rows = f"rows{j}"
            if (b_pred, scan.shape) == (pred, shape) and [
                b_args[pos] for pos in scan.bound
            ] == consts:
                # The call itself (`_rules_for`): each round joins the
                # rows the last one added; the first, the rows so far.
                rounds = f"{indent}    "
                rows = "delta"
                loops += [
                    f"{indent}delta = list(table)",
                    f"{indent}while delta:",
                    f"{rounds}out = []",
                ]
                row_vars = [b_args[pos] for pos in scan.new]
                targets = _tuple(row_vars)
            elif _is_eob(atom):
                access = (b_pred, scan.bound)
                key = _tuple(b_args[pos] for pos in scan.bound)
                # every probe the rule reads is fetched before its loops
                lines.append(f"    probe{j} = probes.get({access!r})"
                             f" or base.probe_index{access!r}")
                loops.append(f"{indent}{rows} = probe{j}.get({key}, ())")
                if scan.same:
                    same = " and ".join(f"r[{a}] == r[{b}]" for a, b in scan.same)
                    loops.append(f"{indent}{rows} = [r for r in {rows} if {same}]")
                loops += [f"{indent}if {rows}:", f"{indent}    eob += len({rows})"]
                # an EOB row holds all the atom's arguments
                row_vars = list(b_args)
                targets = _tuple(
                    a if pos in scan.new else "_"
                    for pos, a in enumerate(b_args)
                )
            else:
                call = _tuple(
                    a if p is None else repr(p)
                    for a, p in zip(b_args, scan.shape)
                )
                callee = callees.setdefault(
                    (b_pred, scan.shape), f"c{len(callees)}"
                )
                loops += [
                    f"{indent}call = ({b_pred!r}, {call})",
                    f"{indent}{rows} = tables.get(call)",
                    f"{indent}if {rows} is None:",
                    f"{indent}    {rows} = tables[call] = {{}}",
                    f"{indent}    active[call] = {callee}",
                    f"{indent}    if {callee}(base, memo, counters, call)"
                    " is None:",
                    f"{indent}        del active[call]",
                    f"{indent}if call in active:",
                    f"{indent}    {rows} = list({rows})",
                    f"{indent}    deps = True",
                    f"{indent}if {rows}:",
                ]
                # an IOB row holds the values of the variables it binds
                row_vars = [b_args[pos] for pos in scan.new]
                targets = _tuple(row_vars)
            indent += "    "
            if j < len(rule.body) - 1:
                loops.append(f"{indent}for {targets} in {rows}:")
                indent += "    "
        if head == row_vars:
            chunk = rows
        elif all(h in row_vars for h in head):
            at = f"g{len(getters)}"
            getters[at] = _getter([row_vars.index(h) for h in head])
            chunk = f"map({at}, {rows})"
        elif not any(h in row_vars for h in head):
            chunk = f"({_tuple(head)},)"
        else:
            chunk = f"[{_tuple(head)} for {targets} in {rows}]"
        if rounds is None:
            lines += [
                "    out = []",
                *loops,
                f"{indent}out.append({chunk})",
                "    if out:",
                "        size = len(table)",
                "        for chunk in out:",
                # a completed sub-table passed through is a table already
                "            table.update(",
                "                chunk if type(chunk) is dict"
                " else dict.fromkeys(chunk)",
                "            )",
                "        memo._added(len(table) - size, counters)",
            ]
        else:
            lines += [
                *loops,
                f"{indent}out += {chunk}",
                f"{rounds}delta = {{r: None for r in out if r not in table}}",
                f"{rounds}table.update(delta)",
                f"{rounds}memo._added(len(delta), counters)",
            ]
    lines += ["    counters.eob_accesses += eob", "    return deps"]
    return "\n".join(lines) + "\n", getters, callees


# (pred, shape) -> its kernel, for every shape compiled in this process
_KERNELS: dict[tuple, Callable] = {}


def _plan(pred: str, shape: tuple) -> Callable:
    """The kernel of `pred` for calls of one shape, built once per process.

    A shape marks each constant argument None and each free argument
    with its placeholder. The kernel, `kernel(base, memo, counters,
    key)`, runs every rule of `pred` once for the call `key` of that
    shape, adds the new rows to its table and returns None, or True if
    it read an active table (see `_kernel_source`). Its code names no
    constant, so one kernel serves every memo and base. Building it
    builds the kernels of the calls it can make; it is cached before
    they are bound, so recursive kernels find each other.
    """
    kernel = _KERNELS.get((pred, shape))
    if kernel is None:
        name = f"{pred}({','.join(p or 'b' for p in shape)})"
        filename = f"<dobquery kernel {name}>"
        source, namespace, callees = _kernel_source(pred, shape)
        exec(compile(source, filename, "exec"), namespace)
        # tracebacks, profilers and `inspect` find the source by its filename
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        kernel = _KERNELS[pred, shape] = namespace["kernel"]
        for call, name in callees.items():
            namespace[name] = _plan(*call)
    return kernel


class MemoTable:
    """Answer tables keyed by canonical call pattern, tied to one base."""

    def __init__(self):
        self.tables: dict[tuple, dict[tuple[int, ...], None]] = {}
        self._active: dict[tuple, Callable] = {}
        # Answers in all tables. It falls only when `_drop_active` drops an
        # aborted evaluation's tables, so within a query step it measures
        # growth.
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

    def mark(self) -> tuple[int, int, int]:
        """The memo's table count, unseen-constant count and entry count,
        for a later `rewind`."""
        return len(self.tables), len(self._unseen), self._entries

    def rewind(self, mark: tuple[int, int, int]):
        """Drop the tables and unseen constants added since `mark`, the
        last ones of each dict, and restore its entry count."""
        tables, unseen, self._entries = mark
        for grown, length in ((self.tables, tables), (self._unseen, unseen)):
            for _ in range(len(grown) - length):
                grown.popitem()

    def _drop_active(self):
        """Forget the tables an aborted evaluation left active.

        Complete tables, those not in `_active`, stay: each was
        saturated before it completed. An active table may lack answers,
        so reusing it would be wrong.
        """
        for key in self._active:
            self._entries -= len(self.tables.pop(key))
        self._active.clear()

    def _added(self, count: int, counters: Counters):
        """Account for `count` new answers just added to a table."""
        self._entries += count
        if self._entries > MAX_TABLE_ENTRIES:
            raise EngineLimitError(
                f"tabling store exceeded {MAX_TABLE_ENTRIES} entries"
            )
        counters.inferred_facts += count


def evaluate(base, memo, counters, steps, substs):
    """Extensions of `substs` satisfying compiled `steps`, from outside
    any tabled call; the work done is added to `counters`.

    Each step is applied to every substitution before the next step runs
    (sideways information passing over the whole batch). A step first
    collects the rows each substitution matches, in batch order, sums
    them and refuses past `MAX_BATCH_ROWS` (`check_batch`); only then
    does it build its substitutions. An EOB step's rows are its probe
    buckets after the repeated-variable filter. An IOB step answers a
    call from its table in `memo.tables`, and a call with no table gets
    one and a pass of its kernel. No kernel calls `evaluate`, so
    `memo._active` is empty whenever a step looks a call up: a call the
    step starts is the oldest active call, and every call still active
    after it returns is in its recursive group. The step re-runs them
    all until no table grows, the engine's one fixpoint loop, and
    completes them by clearing the active set. A table a step finds is
    therefore complete.

    If evaluation raises (say, at the entry cap), the tables it left
    active are dropped, so the memo can still be used; tabled calls keep
    no cleanup of their own. Calls nested deeper than the interpreter's
    recursion limit raise `EngineLimitError`.
    """
    try:
        for step in steps:
            if not substs:
                break
            args, extras, new = step.args, step.extras, step.new
            if step.eob:
                get, same = base.probe_index(*step.access).get, step.same
                matches = [get(args(s + extras), ()) for s in substs]
                if same:
                    matches = [_same_rows(rows, same) for rows in matches]
            else:
                pred, tables, active = step.pred, memo.tables, memo._active
                kernel = _plan(pred, step.shape)
                matches = []
                for s in substs:
                    key = (pred, args(s + extras))
                    rows = tables.get(key)
                    if rows is None:
                        rows = tables[key] = {}
                        active[key] = kernel
                        if kernel(base, memo, counters, key) is None:
                            del active[key]
                        # saturate the recursive group the call leads
                        while active:
                            size = memo._entries
                            for other, other_kernel in list(active.items()):
                                other_kernel(base, memo, counters, other)
                            if memo._entries == size:
                                active.clear()
                    matches.append(rows)
            total = sum(map(len, matches))
            check_batch(step.atom, total)
            if new is None:  # an IOB row is what the step binds
                substs = [s + r for s, rs in zip(substs, matches) for r in rs]
            else:
                counters.eob_accesses += total
                substs = [
                    s + new(r) for s, rs in zip(substs, matches) for r in rs
                ]
        return substs
    except RecursionError:
        memo._drop_active()
        raise EngineLimitError(
            "calls nest deeper than the recursion limit of"
            f" {sys.getrecursionlimit()}"
        ) from None
    except BaseException:
        memo._drop_active()
        raise


def compile_query(memo, atoms, var_slot: dict[str, int]) -> tuple[_Step, ...]:
    """Compile query atoms for left-to-right evaluation on `memo`'s base.

    Constants are interned through the memo. `var_slot` maps the
    variables bound before the first atom to their slots; it is extended
    in place with each variable the atoms bind.
    """
    steps = []
    for atom in atoms:
        pred = atom.predicate
        eob = schema_for(pred, len(atom.args)).kind is PredicateKind.EOB
        args = tuple(
            t.value if t.is_var else memo.intern_const(t.value)
            for t in atom.args
        )
        scan = _scan(args, var_slot)
        n = len(var_slot)
        # an EOB step reads its bound positions; an IOB step its whole
        # call, constants and placeholders appended to the substitution
        index: list[int] = []
        extras: list = []
        for a, p in zip(args, scan.shape):
            if p is None and not isinstance(a, int):
                index.append(var_slot[a])
            elif p is None or not eob:
                index.append(n + len(extras))
                extras.append(a if p is None else p)
        for pos in scan.new:
            var_slot[args[pos]] = len(var_slot)
        steps.append(
            _Step(
                atom, pred, eob, tuple(extras), _getter(index),
                _getter(scan.new) if eob else None,
                scan.same if eob else (), (pred, scan.bound), scan.shape,
            )
        )
    return tuple(steps)


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
        Answers(base.symbols, atom, var_slot, Batch(substs, len(var_slot))),
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
