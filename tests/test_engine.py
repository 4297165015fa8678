import ast
import inspect
import itertools
import random
import re
import sys
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dobquery import engine
from dobquery import (
    Atom,
    EngineLimitError,
    MemoTable,
    OntologyBase,
    Rule,
    SchemaError,
    Term,
    builtin_iob_program,
    parse_atom,
    solve,
    solve_sequence,
)
from dobquery.model import (
    BUILTIN_SCHEMA,
    EOB_PREDICATES,
    IOB_PREDICATES,
    ArgDomain,
)
from dobquery.store import _same_rows
from conftest import (
    CLOSURES, SERVE_Q17, binding_patterns, bottom_up_oracle, closure_counts,
    instances, random_base, random_calls, random_query,
)


def test_other_modules_use_only_the_engines_public_names():
    """No module but the engine imports or reads an underscore name of
    `engine`, or reads or writes a single-underscore attribute through
    any name but `self` or `cls` (say, a memo's private field): the
    executor and the analyzer run on its public core."""
    private = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "engine"):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                if node.value.id == "engine":
                    names = [node.attr]
                elif (node.value.id not in ("self", "cls")
                        and not node.attr.startswith("__")):
                    names = [f"{node.value.id}.{node.attr}"]
                else:
                    continue
            else:
                continue
            private += [
                f"{path.name}:{getattr(node, 'lineno', '')}: {n}"
                for n in names if n.split(".")[-1].startswith("_")
            ]
    assert private == []


def _free_atom(pred):
    arity = BUILTIN_SCHEMA[pred].arity
    return parse_atom(f"{pred}({','.join('XYZ'[i] for i in range(arity))})")


def test_solve_areclasses_cars(cars_base):
    result = solve(cars_base, parse_atom("areClasses(C,O)"))
    assert len(result.answers) == 12
    per_ontology = {}
    for a in result.answers:
        per_ontology.setdefault(a.args[1].value, []).append(a.args[0].value)
    assert {o: sorted(cs) for o, cs in per_ontology.items()} == {
        o: ["car", "dealer", "suv", "vehicle"]
        for o in ("carsOnt", "source1", "source2")
    }


def test_inferred_count_matches_oracle_subprogram(cars_base):
    # areClasses pulls in areImpOntologies; nothing else contributes.
    result = solve(cars_base, parse_atom("areClasses(C,O)"))
    oracle = bottom_up_oracle(cars_base)
    relevant = sum(
        1 for a in oracle if a.predicate in ("areClasses", "areImpOntologies")
    )
    assert result.inferred_fact_count == relevant == 14


def test_transitive_closure_of_chain():
    base = OntologyBase.from_facts(
        [parse_atom("subClassOf(a,b)"), parse_atom("subClassOf(b,c)")]
    )
    result = solve(base, parse_atom("areSubClasses(X,Y)"))
    assert {str(a) for a in result.answers} == {
        "areSubClasses(a,b)",
        "areSubClasses(b,c)",
        "areSubClasses(a,c)",
    }


def test_termination_on_cyclic_subclass_graph():
    base = OntologyBase.from_facts(
        [parse_atom("subClassOf(a,b)"), parse_atom("subClassOf(b,a)")]
    )
    result = solve(base, parse_atom("areSubClasses(X,Y)"))
    assert {str(a) for a in result.answers} == {
        "areSubClasses(a,b)",
        "areSubClasses(b,a)",
        "areSubClasses(a,a)",
        "areSubClasses(b,b)",
    }


def test_eob_atom_has_zero_inferred_count(cars_base):
    result = solve(cars_base, parse_atom("isClass(C,O)"))
    assert result.inferred_fact_count == 0
    assert result.eob_access_count == len(result.answers) == 4


def test_unknown_constant_yields_empty(cars_base):
    result = solve(cars_base, parse_atom("areClasses(C,neverSeen)"))
    assert list(result.answers) == []


def test_memo_hit_adds_zero_inferred(cars_base):
    memo = MemoTable()
    first = solve(cars_base, parse_atom("areClasses(C,O)"), memo)
    again = solve(cars_base, parse_atom("areClasses(C,O)"), memo)
    assert first.inferred_fact_count == 14
    assert again.inferred_fact_count == 0
    assert again.eob_access_count == 0
    assert again.answers == first.answers


def test_memo_is_base_specific(cars_base):
    memo = MemoTable()
    solve(cars_base, parse_atom("areClasses(C,O)"), memo)
    other = OntologyBase()
    with pytest.raises(Exception):
        solve(other, parse_atom("areClasses(C,O)"), memo)


def test_answer_order_is_deterministic(cars_base):
    a = solve(cars_base, parse_atom("areClasses(C,O)")).answers
    b = solve(cars_base, parse_atom("areClasses(C,O)")).answers
    assert a == b


def test_solve_sequence_cars_orderings(cars_base):
    q_prime = [parse_atom("isDProperty(traction,C)"), parse_atom("areClasses(C,O)")]
    subs, counters_prime = solve_sequence(cars_base, q_prime)
    assert sorted(s["O"] for s in subs) == ["carsOnt", "source1", "source2"]
    assert all(s["C"] == "suv" for s in subs)

    q = list(reversed(q_prime))
    subs2, counters_q = solve_sequence(cars_base, q)
    assert {tuple(sorted(s.items())) for s in subs} == {
        tuple(sorted(s.items())) for s in subs2
    }
    assert counters_q.actual_cost > counters_prime.actual_cost


def test_solve_sequence_empty_relation_short_circuits(cars_base):
    subs, counters = solve_sequence(
        cars_base,
        [parse_atom("isStatement(I,P,J)"), parse_atom("areClasses(C,O)")],
    )
    assert subs == []
    assert counters.actual_cost == 0  # no statements, nothing retrieved


def test_solve_sequence_bound_constant(cars_base):
    subs, _ = solve_sequence(cars_base, [parse_atom("areClasses(C,source1)")])
    assert sorted(s["C"] for s in subs) == ["car", "dealer", "suv", "vehicle"]
    assert all(list(s) == ["C"] for s in subs)  # source1 binds no variable


def test_ordering_invariance_of_answers(cars_base):
    atoms = [
        parse_atom("areClasses(C,O)"),
        parse_atom("isDProperty(P,C)"),
        parse_atom("isOntology(O)"),
    ]
    reference = None
    for perm in itertools.permutations(atoms):
        subs, _ = solve_sequence(cars_base, list(perm))
        key = {tuple(sorted(s.items())) for s in subs}
        if reference is None:
            reference = key
        assert key == reference


def test_oracle_on_empty_base():
    assert bottom_up_oracle(OntologyBase()) == set()


def test_oracle_individuals_cars(cars_base):
    oracle = bottom_up_oracle(cars_base)
    individuals = {str(a) for a in oracle if a.predicate == "areIndividuals"}
    assert individuals == {
        "areIndividuals(s123,suv)",
        "areIndividuals(s123,vehicle)",
    }


def test_table_entry_cap_enforced(monkeypatch):
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(30)
    )
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 10)
    memo = MemoTable()
    with pytest.raises(EngineLimitError):
        solve(base, parse_atom("areSubClasses(X,Y)"), memo)


def test_memo_usable_after_table_entry_cap_error(monkeypatch):
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(30)
    )
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 20)
    memo = MemoTable()
    with pytest.raises(EngineLimitError):
        solve(base, parse_atom("areSubClasses(c0,c30)"), memo)
    # the fully bound call nests one call per node, and the deepest
    # complete first: the 20 complete areSubClasses(c<i>,c30) tables for
    # i >= 10 stay, with the empty areSubClasses(c30,c30); the partial
    # tables of the aborted calls are gone, and no call is left active
    assert not memo._active
    assert sorted(args[0] for _, args in memo.tables) == list(range(10, 31))
    assert memo._entries == sum(len(t) for t in memo.tables.values()) == 20
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 1_000_000)
    for query, answers in (("c20,X", 10), ("c0,X", 30), ("X,c30", 30),
                           ("c0,c30", 1)):
        atom = parse_atom(f"areSubClasses({query})")
        assert len(solve(base, atom, memo).answers) == answers
    atom = parse_atom("areSubClasses(c10,X)")
    assert len(solve_sequence(base, [atom], memo=memo)[0]) == 20


def test_solve_sequence_stops_at_the_batch_limit(serve_base):
    """The serve star query's body, in its written order, would make
    2,424,832 rows at its last step. `solve_sequence` sizes that step
    before it builds it, refuses it well within a second, and leaves its
    memo usable: the complete tables stay and answer the shorter
    prefixes with no new work."""
    memo = MemoTable()
    start = time.perf_counter()
    with pytest.raises(EngineLimitError, match=(
        r"^areClasses\(Z5,X\) makes at least 2424832 rows, over the batch"
        r" limit of 1000000$"
    )):
        solve_sequence(serve_base, SERVE_Q17.body, memo=memo)
    assert time.perf_counter() - start < 1
    assert not memo._active
    assert memo._entries == sum(map(len, memo.tables.values()))
    prefix = SERVE_Q17.body[:5]
    substs, counters = solve_sequence(serve_base, prefix, memo=memo)
    assert substs == solve_sequence(serve_base, prefix)[0]
    assert len(substs) == 68608
    assert counters.inferred_facts == 0


def test_solve_stops_at_a_lowered_batch_limit(monkeypatch):
    """`solve` has the same bound as a plan step: a call with 30 answers
    returns at a limit of 30 rows and is refused at 29."""
    base = _subclass_chain(30)
    atom = parse_atom("areSubClasses(c0,X)")
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", 30)
    assert len(solve(base, atom).answers) == 30
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", 29)
    with pytest.raises(EngineLimitError, match=(
        r"^areSubClasses\(c0,X\) makes at least 30 rows, over the batch"
        r" limit of 29$"
    )):
        solve(base, atom)


def _subclass_chain(n: int, back: int | None = None) -> OntologyBase:
    """subClassOf(c<i>,c<i+1>) for i < n, and subClassOf(c<n>,c<back>)."""
    facts = [parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(n)]
    if back is not None:
        facts.append(parse_atom(f"subClassOf(c{n},c{back})"))
    return OntologyBase.from_facts(facts)


def _kernel_runs(run) -> int:
    """How many rule kernel runs `run()` makes. A kernel's comprehensions
    may run in frames of their own under its filename, so a run is a
    frame of a function named `kernel` compiled under that filename."""
    runs = 0

    def profile(frame, event, arg):
        nonlocal runs
        code = frame.f_code
        if (event == "call" and code.co_name == "kernel"
                and code.co_filename.startswith("<dobquery kernel")):
            runs += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return runs


def test_calls_past_the_recursion_limit_are_an_engine_limit():
    """A fully bound call on a chain deeper than the interpreter's
    recursion limit nests one call per node and is refused as
    `EngineLimitError`, and the memo still answers shallow calls."""
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(3000)
    )
    memo = MemoTable()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(EngineLimitError, match=(
            "^calls nest deeper than the recursion limit of 1000$"
        )):
            solve(base, parse_atom("areSubClasses(c0,c3000)"), memo)
        assert not memo._active
        atom = parse_atom("areSubClasses(c2990,c3000)")
        got = solve(base, atom, memo)
    finally:
        sys.setrecursionlimit(limit)
    want = solve(base, atom, MemoTable())
    assert list(got.answers) == list(want.answers)
    assert len(got.answers) == 1
    assert got.actual_cost == want.actual_cost


def test_kernels_complete_one_pass_calls_inline():
    """No kernel runs twice: each of the 50 nested calls on an acyclic
    chain reads complete tables only, and its caller's kernel completes
    it in place, as the query step does its own call."""
    base = _subclass_chain(50)
    memo = MemoTable()
    atom = parse_atom("areSubClasses(c0,c50)")
    results = []
    assert _kernel_runs(
        lambda: results.append(solve(base, atom, memo))
    ) == 51
    assert len(results[0].answers) == 1
    assert len(memo.tables) == 51
    assert not memo._active


@pytest.mark.parametrize("back", [None, 4])
def test_entry_cap_in_an_inlined_callee_leaves_the_memo_usable(
    back, monkeypatch
):
    """The cap is hit in a kernel that nested kernels called inline, on
    an acyclic chain and inside a cycle: the aborted calls leave no
    active table, and the memo still answers correctly."""
    n = 12 if back else 30
    base = _subclass_chain(n, back)
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 5)
    memo = MemoTable()
    with pytest.raises(EngineLimitError) as info:
        solve(base, parse_atom(f"areSubClasses(c0,c{n})"), memo)
    names = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
    inline = names[names.index("evaluate") + 1:]
    # three or more calls below the call the query step made
    assert inline.count("kernel") >= 4
    assert not memo._active
    assert memo._entries == sum(len(t) for t in memo.tables.values())
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 1_000_000)
    for start in range(0, 12, 3):
        for end in ("X", f"c{n}"):
            atom = parse_atom(f"areSubClasses(c{start},{end})")
            assert solve(base, atom, memo).answers == solve(base, atom).answers


def _renamed(base, name, pad=0):
    """The facts of `base` with each constant text renamed by `name`,
    after `pad` isOntology facts, which no rule reads, that shift every
    constant's id."""
    facts = [Atom("isOntology", (Term.const(f"pad{i}"),)) for i in range(pad)]
    facts += [
        Atom(f.predicate, tuple(Term.const(name(t.value)) for t in f.args))
        for f in base.facts()
    ]
    return OntologyBase.from_facts(facts)


def test_rule_program_is_compiled_once_per_process(cars_base):
    first, second = MemoTable(), MemoTable()
    atom = parse_atom("areClasses(C,O)")
    # tables stay per memo: the second memo pays the whole derivation again
    assert _counts(solve(cars_base, atom, first)) == _counts(
        solve(cars_base, atom, second)
    )
    compiled = dict(engine._KERNELS)

    # a memo on another base reuses the same kernels, even after the base
    # grows past the memo's binding
    base = OntologyBase.from_facts([parse_atom("isClass(a,o)")])
    memo = MemoTable()
    memo.bind(base)
    base.assert_fact(parse_atom("isClass(b,o)"))
    assert len(solve(base, atom, memo).answers) == 2
    assert engine._KERNELS == compiled

    # one kernel per (predicate, call shape): two bases of one structure,
    # with other constant texts and ids, one of them Python syntax, reach
    # the same shapes, and the second compiles nothing
    engine._KERNELS.clear()
    template = random_base(random.Random(5))
    tricky = "x') or __import__('os').system('true') #"
    names = [lambda t: f"a_{t}", lambda t: tricky if t == "o0" else f"b_{t}"]
    bases = [_renamed(template, names[0]), _renamed(template, names[1], 2)]
    reached: set[tuple] = set()
    counts = []
    for base, name in zip(bases, names):
        memo = MemoTable()
        counts.append([])
        for pred in IOB_PREDICATES:
            domains = BUILTIN_SCHEMA[pred].arg_domains
            for pattern in binding_patterns(len(domains)):
                args = tuple(
                    Term.var(f"V{v}") if v is not None
                    else Term.const(name(template.symbols.text(
                        template.domain_values(domain)[0]
                    )))
                    for domain, v in zip(domains, pattern)
                )
                counts[-1].append(_counts(solve(base, Atom(pred, args), memo)))
        reached |= {
            (pred, tuple(None if isinstance(a, int) else a for a in args))
            for pred, args in memo.tables
        }
        if len(counts) == 1:
            built = dict(engine._KERNELS)
            # a kernel is built with the kernels of the calls it can make
            assert reached <= built.keys()
    assert engine._KERNELS == built
    assert counts[0] == counts[1]
    assert any(
        bases[1].symbols.text(a) == tricky
        for _, args in memo.tables for a in args if isinstance(a, int)
    )
    for pred, shape in reached:
        kernel = engine._plan(pred, shape)
        name = f"{pred}({','.join(p or 'b' for p in shape)})"
        assert kernel.__code__.co_filename == f"<dobquery kernel {name}>"
        source = inspect.getsource(kernel)
        for base in bases:
            for cid in range(len(base.symbols)):
                assert base.symbols.text(cid) not in source


def test_kernel_frames_name_their_call_shape(monkeypatch):
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(5)
    )
    monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 2)
    with pytest.raises(EngineLimitError) as info:
        solve(base, parse_atom("areSubClasses(c0,X)"), MemoTable())
    frames = traceback.extract_tb(info.value.__traceback__)
    assert [
        (frame.filename, frame.line) for frame in frames
        if frame.filename.startswith("<dobquery kernel")
    ][-1] == (
        "<dobquery kernel areSubClasses(b,?0)>",
        "memo._added(len(delta), counters)",
    )


def test_only_lone_free_end_closures_and_three_areindividuals_shapes_are_reordered():
    """Of every IOB call shape, the 14 closure shapes whose last
    argument, or else first, is a placeholder that occurs once (a lone
    free end) run their recursive rule left-linearly, or in the mirror
    order, with the call itself as its one IOB atom. The guard comes
    first when the arguments between the ends are bound, and after the
    call when one of them is free. `areIndividuals(?0,b)` makes one
    rule's tabled call first and `areIndividuals(b,?0)` four, and
    `areIndividuals(b,b)` runs its `allValuesFrom` rule with its EOB
    atoms bound-first. Every other shape and rule runs as written."""
    rewritten = {}
    for pred in IOB_PREDICATES:
        for pattern in binding_patterns(BUILTIN_SCHEMA[pred].arity):
            shape = tuple(None if v is None else f"?{v}" for v in pattern)
            rules = engine._rules_for(pred, shape)
            assert len(rules) == len(engine._RULES[pred])
            moved = [r for r in rules if r not in engine._RULES[pred]]
            if moved:
                name = ",".join("b" if p is None else p for p in shape)
                rewritten[f"{pred}({name})"] = [str(r) for r in moved]
    sub_left = ["areSubClasses(C1,C2) :- areSubClasses(C1,C3),"
                " subClassOf(C3,C2)"]
    sub_mirror = ["areSubClasses(C1,C2) :- areSubClasses(C3,C2),"
                  " subClassOf(C1,C3)"]
    imp_left = ["areImpOntologies(O1,O2) :- areImpOntologies(O1,O3),"
                " impOntology(O3,O2)"]
    imp_mirror = ["areImpOntologies(O1,O2) :- areImpOntologies(O3,O2),"
                  " impOntology(O1,O3)"]
    head = "areStatements(I,P,J) :- "
    guard_left = [head + "isTransitive(P), areStatements(I,P,K),"
                  " isStatement(K,P,J)"]
    left_guard = [head + "areStatements(I,P,K), isTransitive(P),"
                  " isStatement(K,P,J)"]
    guard_mirror = [head + "isTransitive(P), areStatements(K,P,J),"
                    " isStatement(I,P,K)"]
    mirror_guard = [head + "areStatements(K,P,J), isTransitive(P),"
                    " isStatement(I,P,K)"]
    assert rewritten == {
        "areSubClasses(b,?0)": sub_left,
        "areSubClasses(?0,?1)": sub_left,
        "areSubClasses(?0,b)": sub_mirror,
        "areImpOntologies(b,?0)": imp_left,
        "areImpOntologies(?0,?1)": imp_left,
        "areImpOntologies(?0,b)": imp_mirror,
        "areStatements(b,b,?0)": guard_left,
        "areStatements(?0,b,?1)": guard_left,
        "areStatements(b,?0,?1)": left_guard,
        "areStatements(?0,?0,?1)": left_guard,
        "areStatements(?0,?1,?2)": left_guard,
        "areStatements(?0,b,b)": guard_mirror,
        "areStatements(?0,?1,b)": mirror_guard,
        "areStatements(?0,?1,?1)": mirror_guard,
        "areIndividuals(?0,b)": [
            "areIndividuals(I,C2) :- areSubClasses(C1,C2), isIndividual(I,C1)",
        ],
        "areIndividuals(b,?0)": [
            "areIndividuals(I,C) :- areStatements(I,P,J), isOProperty(P,C,R)",
            "areIndividuals(J,C) :- areStatements(I,P,J), isOProperty(P,D,C)",
            "areIndividuals(I,C) :- areStatements(I,P,J), isDProperty(P,C)",
            "areIndividuals(J,C) :- areStatements(I,P,J),"
            " allValuesFrom(C1,P,C), isIndividual(I,C1)",
        ],
        "areIndividuals(b,b)": [
            "areIndividuals(J,C) :- allValuesFrom(C1,P,C),"
            " isIndividual(I,C1), areStatements(I,P,J)",
        ],
    }


def test_every_body_order_reorders_one_written_rule():
    """An entry of `_BODY_ORDERS` runs in place of the written rule of
    its predicate with the same head and body atoms, so a mistyped entry
    would run the written rule instead; each entry must find exactly
    one, and no two entries of a shape the same one. Its one tabled call
    comes first or last. Coming first, it is made once per call, before
    any loop of its rule, and reads only the call's constant positions:
    the kernel makes it with the key's constants `k<i>` and placeholders
    only, and with at least one constant, so the call is narrowed by
    them."""
    assert engine._BODY_ORDERS
    for (pred, shape), entries in engine._BODY_ORDERS.items():
        written = engine._RULES[pred]
        replaced = []
        for entry in entries:
            text = str(entry)
            same = [
                r for r in written if r.head == entry.head
                and sorted(map(str, r.body)) == sorted(map(str, entry.body))
            ]
            assert len(same) == 1, text
            assert same[0] != entry, text
            replaced += same
            iob = [
                j for j, a in enumerate(entry.body) if not engine._is_eob(a)
            ]
            assert iob in ([0], [len(entry.body) - 1]), text
        assert len(set(replaced)) == len(replaced), (pred, shape)

        source = engine._kernel_source(pred, shape)[0]
        for entry in entries:
            text = str(entry)
            if engine._is_eob(entry.body[0]):
                continue
            rule_source = source.split(f"    # {text}\n")[1].split("    # ")[0]
            calls = [
                ast.parse(line.split(" = ", 1)[1]).body[0].value
                for line in rule_source.splitlines()
                if line.startswith("    call = ")
            ]
            assert len(calls) == 1, text
            name, args = calls[0].elts
            assert name.value == entry.body[0].predicate
            assert all(
                isinstance(a, ast.Name) and re.fullmatch(r"k\d+", a.id)
                or isinstance(a, ast.Constant) and a.value.startswith("?")
                for a in args.elts
            ), text
            assert any(isinstance(a, ast.Name) for a in args.elts), text


def _tables(base, memo) -> set[str]:
    return {
        f"{pred}(" + ",".join(
            a if isinstance(a, str) else base.symbols.text(a) for a in args
        ) + ")"
        for pred, args in memo.tables
    }


def test_areindividuals_of_an_individual_makes_two_statement_tables():
    """areIndividuals(i,X) makes its `areStatements` calls first, with i
    bound: its object- and datatype-property rules read
    `areStatements(i,?0,?1)`, and the rules that reach i as a statement's
    value `areStatements(?0,?1,i)`, and then probe the property facts by
    each row's property. No call is made per property.

    Counted by hand, without `isTransitive` facts:
      * isIndividual(i,c1) gives c1 (1 access, 1 inferred fact), and is
        read again by the subclass rule, whose one call
        `areSubClasses(c1,?0)` finds no edge (1 access);
      * `areStatements(i,?0,?1)` holds (p1,j) and (q1,v) (2 accesses, 2
        inferred facts); its recursive rule probes `isTransitive` once
        per row and finds nothing;
      * `areStatements(?0,?1,i)` holds (k,p2) (1 access, 1 inferred
        fact);
      * the domain rule probes isOProperty(p1,...) and isOProperty(q1,...)
        (1 access, c1 again), the range rule isOProperty(p2,...) (1
        access: c3, 1 inferred fact), the datatype rule isDProperty(p1,...)
        and isDProperty(q1,...) (1 access, c1 again), and the
        allValuesFrom rule allValuesFrom(...,p2,...) (nothing).
    That is 5 inferred facts and 8 EOB accesses, and 2 answers. The
    written order, which scans the property facts and makes one call per
    property, makes 11 tables at 6 inferred facts and 14 accesses."""
    base = OntologyBase.from_facts(map(parse_atom, [
        "isOProperty(p1,c1,c2)", "isOProperty(p2,c2,c3)",
        "isOProperty(p3,c3,c1)", "isDProperty(q1,c1)", "isDProperty(q2,c2)",
        "isStatement(i,p1,j)", "isStatement(i,q1,v)", "isStatement(k,p2,i)",
        "isIndividual(i,c1)",
    ]))
    memo = MemoTable()
    atom = parse_atom("areIndividuals(i,X)")
    result = solve(base, atom, memo)
    assert sorted(map(str, result.answers)) == [
        "areIndividuals(i,c1)", "areIndividuals(i,c3)",
    ]
    assert {str(a) for a in result.answers} == {
        str(a) for a in bottom_up_oracle(base)
        if a.predicate == "areIndividuals" and a.args[0].value == "i"
    }
    assert _counts(result) == (5, 8)
    assert _tables(base, memo) == {
        "areIndividuals(i,?0)", "areSubClasses(c1,?0)",
        "areStatements(i,?0,?1)", "areStatements(?0,?1,i)",
    }


def test_areindividuals_fully_bound_reads_no_individual_without_allvaluesfrom():
    """areIndividuals(j,c) probes its `allValuesFrom` rule's atoms
    bound-first: allValuesFrom(C1,P,c) comes first and finds nothing,
    so no `isIndividual` row is read for it, where the written order
    read all three before it."""
    base = OntologyBase.from_facts(map(parse_atom, [
        *(f"isIndividual(x{k},d)" for k in range(3)),
        "isStatement(x0,p,j)", "isClass(c,o)",
    ]))
    memo = MemoTable()
    result = solve(base, parse_atom("areIndividuals(j,c)"), memo)
    assert len(result.answers) == 0
    assert _counts(result) == (0, 0)
    assert _tables(base, memo) == {"areIndividuals(j,c)"}


@pytest.mark.parametrize("body", [
    ("areSubClasses(X,Z)", "subClassOf(Z,Y)"),
    ("subClassOf(X,Z)", "areSubClasses(Z,W)", "areSubClasses(W,Y)"),
])
def test_rule_kernels_refuse_a_tabled_call_before_the_last_atom(body):
    """Nested loops make a body's calls in the order step-by-step
    evaluation makes them only when its one IOB atom is the last."""
    program = builtin_iob_program()
    assert set(engine._compile_rules(program)) == set(IOB_PREDICATES)
    rule = Rule(parse_atom("areSubClasses(X,Y)"), tuple(map(parse_atom, body)))
    with pytest.raises(SchemaError, match=re.escape(f"rule {rule}:")):
        engine._compile_rules([*program, rule])


@pytest.mark.parametrize("seed", range(20))
def test_topdown_equals_oracle_free_patterns(seed):
    rng = random.Random(seed)
    base = random_base(rng)
    oracle = bottom_up_oracle(base)
    memo = MemoTable()
    for pred in IOB_PREDICATES:
        got = {str(a) for a in solve(base, _free_atom(pred), memo).answers}
        want = {str(a) for a in oracle if a.predicate == pred}
        assert got == want, f"{pred} differs on seed {seed}"


@pytest.mark.parametrize("seed", range(8))
def test_topdown_equals_oracle_bound_patterns(seed):
    rng = random.Random(1000 + seed)
    base = random_base(rng)
    oracle = bottom_up_oracle(base)
    memo = MemoTable()
    for pred in IOB_PREDICATES:
        arity = BUILTIN_SCHEMA[pred].arity
        facts = [a for a in oracle if a.predicate == pred]
        consts = sorted({t.value for a in facts for t in a.args}) or ["zz"]
        for _ in range(5):
            shape = [
                rng.choice(["VAR", rng.choice(consts)]) for _ in range(arity)
            ]
            args = ",".join(
                f"X{i}" if s == "VAR" else s for i, s in enumerate(shape)
            )
            got = {
                str(a) for a in solve(base, parse_atom(f"{pred}({args})"), memo).answers
            }
            want = {
                str(a)
                for a in facts
                if all(
                    s == "VAR" or a.args[i].value == s
                    for i, s in enumerate(shape)
                )
            }
            assert got == want


def test_counters_monotone_across_shared_memo(cars_base):
    memo = MemoTable()
    atoms = [
        parse_atom("areClasses(C,O)"),
        parse_atom("areIndividuals(I,C)"),
        parse_atom("areClasses(C,carsOnt)"),
        parse_atom("areClasses(C,O)"),
    ]
    for atom in atoms:
        result = solve(cars_base, atom, memo)
        assert result.inferred_fact_count >= 0
        assert result.eob_access_count >= 0


def _counts(result):
    return result.inferred_fact_count, result.eob_access_count


def test_nonrecursive_call_is_expanded_once():
    base = OntologyBase.from_facts(
        parse_atom(f"isStatement(i{k},p,v{k})") for k in range(3)
    )
    result = solve(base, parse_atom("areStatements(I,P,J)"))
    assert len(result.answers) == 3
    # no isTransitive fact: three answers from three isStatement rows
    assert _counts(result) == (3, 3)


def test_chain_tables_are_expanded_once():
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(10)
    )
    result = solve(base, parse_atom("areSubClasses(c0,X)"))
    assert len(result.answers) == 10
    # one table, of the ten ancestors; c0's edge is read by the base
    # rule, and each ancestor's edge once by the left-linear rule (c10
    # has none)
    assert _counts(result) == (10, 10)


def _deep_chain_base(depth=300):
    facts = [parse_atom("isTransitive(p)")]
    for j in range(depth):
        facts.append(parse_atom(f"subClassOf(c{j},c{j + 1})"))
        facts.append(parse_atom(f"isStatement(s{j},p,s{j + 1})"))
    return OntologyBase.from_facts(facts)


@pytest.mark.parametrize("query, answers, counts", [
    ("areSubClasses(c0,X)", 300, (300, 300)),
    ("areSubClasses(c150,X)", 150, (150, 150)),
    ("areSubClasses(c290,X)", 10, (10, 10)),
    ("areStatements(s0,p,X)", 300, (300, 301)),
    ("areStatements(s150,p,X)", 150, (150, 151)),
    ("areStatements(s290,p,X)", 10, (10, 11)),
    ("areSubClasses(X,c300)", 300, (300, 300)),
    ("areSubClasses(X,c10)", 10, (10, 10)),
    ("areStatements(X,p,s300)", 300, (300, 301)),
    ("areSubClasses(X,Y)", 45_150, (45_150, 45_150)),
    ("areStatements(X,p,Y)", 45_150, (45_150, 45_151)),
    ("areStatements(X,P,Y)", 45_150, (45_150, 90_300)),
])
def test_deep_chain_counters(query, answers, counts):
    """n = 300 - k nodes above the call c<k> (or s<k>), and n = k below
    the call with its first argument free: one table of n answers. The
    call's edge and each answer's edge but the last's is read once (n
    accesses); areStatements also reads isTransitive(p) once (n + 1).
    With both ends free, one table of the d(d+1)/2 = 45,150 pairs: the
    base rule reads the 300 edges and each pair (x,y) the edge out of y,
    which 44,850 pairs have. With the property free too, the call comes
    before isTransitive, which it reads once per pair."""
    result = solve(_deep_chain_base(), parse_atom(query))
    assert len(result.answers) == answers
    assert _counts(result) == counts


def test_a_chain_deeper_than_the_recursion_limit_answers_a_first_bound_call():
    """A closure call bound in all but its last argument runs its
    recursive rule as a loop over its own table and nests no call, so a
    chain ten times deeper than the recursion limit answers."""
    base = _subclass_chain(10_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = solve(base, parse_atom("areSubClasses(c0,X)"))
    finally:
        sys.setrecursionlimit(limit)
    assert len(result.answers) == 10_000
    assert _counts(result) == (10_000, 10_000)


def test_a_chain_deeper_than_the_recursion_limit_answers_a_last_bound_call():
    """The mirror closure nests no call either, and `areIndividuals`
    with its class bound makes its one areSubClasses call first: on a
    chain ten times deeper than the recursion limit, with one individual
    per class, both answer. areIndividuals(X,c10000) infers the 10,000
    subclasses and its 10,001 answers; it reads the closure's 10,000
    edges, the 10,001 individuals of its own and its subclasses' classes
    and, for the allValuesFrom rule as written, every individual again."""
    base = _typed_chain_base(10_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        results = [
            solve(base, parse_atom(q))
            for q in ("areSubClasses(X,c10000)", "areIndividuals(X,c10000)")
        ]
    finally:
        sys.setrecursionlimit(limit)
    assert [len(r.answers) for r in results] == [10_000, 10_001]
    assert list(map(_counts, results)) == [(10_000, 10_000), (20_001, 30_002)]


def _typed_chain_base(depth=300):
    """`_deep_chain_base` plus one ontology, each chain class in it and
    one individual of each chain class."""
    facts = [parse_atom("isTransitive(p)"), parse_atom("isOntology(o)")]
    for j in range(depth + 1):
        facts.append(parse_atom(f"isClass(c{j},o)"))
        facts.append(parse_atom(f"isIndividual(i{j},c{j})"))
    for j in range(depth):
        facts.append(parse_atom(f"subClassOf(c{j},c{j + 1})"))
        facts.append(parse_atom(f"isStatement(s{j},p,s{j + 1})"))
    return OntologyBase.from_facts(facts)


@pytest.mark.parametrize("queries, answers, counts", [
    (["areIndividuals(X,c150)"], 151, (301, 602)),
    # an IOB step followed by another step extends each substitution
    (["areSubClasses(c150,X)", "isClass(X,O)"], 150, (150, 300)),
    (["areIndividuals(I,c150)", "isIndividual(I,C)"], 151, (301, 753)),
])
def test_typed_chain_counters(queries, answers, counts):
    """areIndividuals(X,c150) calls areSubClasses(C1,c150) first: 150
    subclasses in 150 accesses, then one isIndividual probe per class
    (151 rows, c150's own included) and, for the allValuesFrom rule as
    written, all 301 individuals; the 151 answers make 301 inferred
    facts."""
    atoms = [parse_atom(q) for q in queries]
    base = _typed_chain_base()
    if len(atoms) == 1:
        result = solve(base, atoms[0])
        assert len(result.answers) == answers
        assert _counts(result) == counts
    else:
        subs, counters = solve_sequence(base, atoms)
        assert len(subs) == answers
        assert (counters.inferred_facts, counters.eob_accesses) == counts


_CYCLE = ["subClassOf(a,b)", "subClassOf(b,c)", "subClassOf(c,a)"]


@pytest.mark.parametrize("query, answers, counts", [
    ("areSubClasses(a,a)", 1, (3, 8)),
    ("areSubClasses(a,d)", 0, (0, 6)),
    ("areSubClasses(d,d)", 1, (1, 4)),
])
def test_fully_bound_call_on_cycle(query, answers, counts):
    """A fully bound call's recursive rule ends in a fully bound call,
    whose one possible answer binds no value."""
    base = OntologyBase.from_facts(
        parse_atom(f) for f in _CYCLE + ["subClassOf(d,d)"]
    )
    result = solve(base, parse_atom(query))
    assert [str(a) for a in result.answers] == [query] * answers
    assert _counts(result) == counts


def test_first_bound_call_on_cycle_reads_only_its_own_table():
    """The left-linear closure of a on the 3-cycle: one table of three
    answers, a's edge read by the base rule and each answer's edge once
    (4 accesses), no other table and no recursive group."""
    base = OntologyBase.from_facts(parse_atom(f) for f in _CYCLE)
    memo = MemoTable()
    results = []
    assert _kernel_runs(lambda: results.append(
        solve(base, parse_atom("areSubClasses(a,X)"), memo)
    )) == 1
    assert {str(a) for a in results[0].answers} == {
        "areSubClasses(a,a)", "areSubClasses(a,b)", "areSubClasses(a,c)",
    }
    assert _counts(results[0]) == (3, 4)
    assert len(memo.tables) == 1


def test_cyclic_group_is_reexpanded_to_fixpoint():
    """A fully bound call still nests one call per node. On a -> c,
    a -> b, b -> t and c -> a, areSubClasses(a,t) first calls (c,t),
    which reads (a,t) while its table is still empty; (b,t) then answers
    (a,t). (a,t) and (c,t) form one recursive group, and (c,t) holds its
    answer only because the query step re-runs the group until no table
    grows: 4 first passes and two rounds of 2 runs, 8 kernel runs for 4
    tables."""
    base = OntologyBase.from_facts(parse_atom(f) for f in (
        "subClassOf(a,c)", "subClassOf(a,b)", "subClassOf(b,t)",
        "subClassOf(c,a)",
    ))
    memo = MemoTable()
    results = []
    assert _kernel_runs(lambda: results.append(
        solve(base, parse_atom("areSubClasses(a,t)"), memo)
    )) == 8
    assert [str(a) for a in results[0].answers] == ["areSubClasses(a,t)"]
    assert {
        base.symbols.text(args[0]): len(rows)
        for (_, args), rows in memo.tables.items()
    } == {"a": 1, "b": 1, "c": 1, "t": 0}
    # three answers; the first passes read 5 rows, and each round reads
    # 3: 2 for (a,t) and 1 for (c,t)
    assert _counts(results[0]) == (3, 11)
    assert not memo._active
    again = solve(base, parse_atom("areSubClasses(c,t)"), memo)
    assert len(again.answers) == 1 and _counts(again) == (0, 0)


def _without_cycles(base) -> OntologyBase:
    """`base` with only those subClassOf, impOntology and isStatement
    facts whose first argument's text sorts below their last's, so no
    subclass, import or statement graph has a cycle."""
    return OntologyBase.from_facts(
        f for f in base.facts()
        if f.predicate not in ("subClassOf", "impOntology", "isStatement")
        or f.args[0].value < f.args[-1].value
    )


@given(st.integers(0, 2**32 - 1))
def test_kernels_rerun_only_on_cycles(seed):
    """With no subclass, import or statement cycle, no call joins a
    recursive group: every call of every IOB predicate and binding
    pattern, on a fresh memo, runs each kernel once per table it makes.
    The counters of such calls thus never depend on the group loop."""
    rng = random.Random(seed)
    base = _without_cycles(random_base(rng))
    for atom in random_calls(rng, base):
        memo = MemoTable()
        runs = _kernel_runs(lambda: solve(base, atom, memo))
        assert runs == len(memo.tables), atom


def test_repeated_variable_call_on_cycle():
    base = OntologyBase.from_facts(
        parse_atom(f) for f in _CYCLE + ["subClassOf(d,d)"]
    )
    result = solve(base, parse_atom("areSubClasses(X,X)"))
    assert {str(a) for a in result.answers} == {
        "areSubClasses(a,a)", "areSubClasses(b,b)",
        "areSubClasses(c,c)", "areSubClasses(d,d)",
    }
    renamed = solve(base, parse_atom("areSubClasses(Y,Y)"))
    assert renamed.answers == result.answers
    # a recursive group, so re-run in rounds; of the rows read for
    # subClassOf(X,X) only d's self-loop counts as an access
    assert _counts(renamed) == _counts(result) == (14, 57)


_CYCLIC_BASE = _CYCLE + [
    "subClassOf(d,d)", "isOntology(o1)", "isOntology(o2)",
    "impOntology(o1,o2)", "impOntology(o2,o1)", "isClass(a,o1)",
    "isClass(d,o2)", "isIndividual(i,a)", "isTransitive(p)",
    "isStatement(i,p,j)", "isStatement(j,p,i)", "isStatement(j,p,j)",
    "isOProperty(p,a,b)", "isDProperty(p,c)", "allValuesFrom(a,p,b)",
]


@pytest.mark.parametrize("cyclic", [False, True], ids=["cars", "cycle"])
def test_table_rows_hold_the_calls_free_values(cyclic, cars_base):
    """A row holds one value per distinct placeholder of its call, for
    every IOB call with constants, repeated variables or both."""
    base = cars_base
    if cyclic:
        base = OntologyBase.from_facts(parse_atom(f) for f in _CYCLIC_BASE)
    memo = MemoTable()
    for pred in IOB_PREDICATES:
        choices = [
            ["X", "Y"] + [
                base.symbols.text(c)
                for c in dict.fromkeys(base.domain_values(domain))
            ][:2]
            for domain in BUILTIN_SCHEMA[pred].arg_domains
        ]
        for args in itertools.product(*choices):
            solve(base, parse_atom(f"{pred}({','.join(args)})"), memo)
    assert sum(map(len, memo.tables.values())) > 0
    for (pred, args), rows in memo.tables.items():
        width = len({a for a in args if isinstance(a, str)})
        assert all(len(row) == width for row in rows), (pred, args)
    assert memo._entries == sum(map(len, memo.tables.values()))


# --- property tests over random small bases --------------------------------

_POOLS = {
    ArgDomain.CLASS: ("c0", "c1", "c2", "c3"),
    ArgDomain.ONTOLOGY: ("o0", "o1", "o2"),
    ArgDomain.INDIVIDUAL: ("i0", "i1", "i2"),
    ArgDomain.PROPERTY: ("p0", "p1"),
    ArgDomain.VALUE: ("i0", "i1", "i2", "v0"),
}


def _facts_of(pred):
    domains = BUILTIN_SCHEMA[pred].arg_domains
    return st.tuples(*(st.sampled_from(_POOLS[d]) for d in domains)).map(
        lambda args: Atom(pred, tuple(Term.const(a) for a in args))
    )


# The recursive predicates' facts are drawn twice as often, so subclass,
# import and transitive-statement cycles are common.
_bases = st.lists(
    st.sampled_from(
        EOB_PREDICATES + ("subClassOf", "impOntology", "isStatement")
    ).flatmap(_facts_of),
    max_size=30,
).map(OntologyBase.from_facts)


def _call_atoms(pred, data, variables=("X", "Y")):
    """One atom per binding pattern of `pred`; free positions draw their
    variable from `variables`, so some calls repeat a variable."""
    schema = BUILTIN_SCHEMA[pred]
    for bound in itertools.product((False, True), repeat=schema.arity):
        yield Atom(pred, tuple(
            Term.const(data.draw(st.sampled_from(_POOLS[d]))) if b
            else Term.var(data.draw(st.sampled_from(variables)))
            for b, d in zip(bound, schema.arg_domains)
        ))


@given(_bases, st.data())
def test_engine_matches_oracle_for_every_binding_pattern(base, data):
    oracle = bottom_up_oracle(base)
    for pred in IOB_PREDICATES:
        for atom in _call_atoms(pred, data):
            answers = solve(base, atom).answers
            assert set(answers) == instances(atom, oracle), atom
            assert list(answers) == sorted(
                instances(atom, oracle), key=str
            ), atom


@given(_bases, st.data())
def test_counters_invariant_under_variable_renaming(base, data):
    for pred in IOB_PREDICATES:
        for atom in _call_atoms(pred, data):
            renamed = Atom(pred, tuple(
                Term.var("R" + t.value) if t.is_var else t for t in atom.args
            ))
            first, second = solve(base, atom), solve(base, renamed)
            assert _counts(first) == _counts(second), atom
            assert len(first.answers) == len(second.answers)

    atoms = [
        next(iter(_call_atoms(pred, data, ("X", "Y", "Z"))))
        for pred in data.draw(st.lists(
            st.sampled_from(IOB_PREDICATES + EOB_PREDICATES),
            min_size=2, max_size=3,
        ))
    ]
    renaming = dict(zip("XYZ", data.draw(st.permutations("ABC"))))
    renamed = [
        Atom(a.predicate, tuple(
            Term.var(renaming[t.value]) if t.is_var else t for t in a.args
        ))
        for a in atoms
    ]
    subs, counters = solve_sequence(base, atoms)
    renamed_subs, renamed_counters = solve_sequence(base, renamed)
    assert counters == renamed_counters
    assert {
        tuple(sorted((renaming[v], c) for v, c in s.items())) for s in subs
    } == {tuple(sorted(s.items())) for s in renamed_subs}


@given(_bases, st.data())
def test_shared_memo_holds_only_complete_tables_between_calls(base, data):
    """Between evaluations every table of a shared memo is complete: no
    call is active and the entry count is the tables' size, whether a
    call returned or stopped at a small entry cap. Every call that
    returns agrees with the oracle, whatever the memo held before it."""
    oracle = bottom_up_oracle(base)
    atoms = data.draw(st.permutations(
        [atom for pred in IOB_PREDICATES for atom in _call_atoms(pred, data)]
    ))
    memo = MemoTable()
    for atom in atoms:
        cap = data.draw(st.none() | st.integers(0, 40))
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(engine, "MAX_TABLE_ENTRIES", cap)
            try:
                answers = solve(base, atom, memo).answers
            except EngineLimitError:
                assert cap is not None
            else:
                assert set(answers) == instances(atom, oracle), atom
        assert not memo._active
        assert memo._entries == sum(map(len, memo.tables.values()))


def _lone_free_end(pattern) -> bool:
    """Whether a binding pattern's last argument, or else its first, is
    a variable that occurs once in it."""
    return any(
        v is not None and pattern.count(v) == 1
        for v in (pattern[0], pattern[-1])
    )


def _check_closures(seed, rnd, wanted):
    """Every closure call of each lone-free-end binding pattern that
    `wanted` accepts, on a random base (cycles included) and on its facts
    in another insertion order: every constant at a bound end and, for
    areStatements, every property as a bound second argument. Its answers
    are the oracle's and its counters the closed form `closure_counts`."""
    base = random_base(random.Random(seed))
    facts = list(base.facts())
    rnd.shuffle(facts)
    shuffled = OntologyBase.from_facts(facts)
    oracle = bottom_up_oracle(base)
    texts = [base.symbols.text(c) for c in range(len(base.symbols))]
    for pred in CLOSURES:
        domains = BUILTIN_SCHEMA[pred].arg_domains
        values = [texts] + [
            sorted({base.symbols.text(c) for c in base.domain_values(d)})
            for d in domains[1:-1]
        ] + [texts]
        for pattern in binding_patterns(len(domains)):
            if not (_lone_free_end(pattern) and wanted(pattern)):
                continue
            bound = [pos for pos, v in enumerate(pattern) if v is None]
            for consts in itertools.product(*(values[pos] for pos in bound)):
                at = dict(zip(bound, consts))
                atom = Atom(pred, tuple(
                    Term.const(at[pos]) if v is None else Term.var(f"V{v}")
                    for pos, v in enumerate(pattern)
                ))
                want = closure_counts(base, oracle, atom)
                for b in (base, shuffled):
                    result = solve(b, atom)
                    assert set(result.answers) == instances(atom, oracle), atom
                    assert _counts(result) == want, atom


@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_first_bound_closures_match_the_closed_form(seed, rnd):
    """Closure calls with only their last argument free run
    left-linearly (`_check_closures`)."""
    _check_closures(seed, rnd, lambda p: p.count(None) == len(p) - 1
                    and p[-1] is not None)


@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_last_bound_closures_match_the_closed_form(seed, rnd):
    """Closure calls with only their first argument free run in the
    mirror order: as accesses, the in-edges of the call's last constant,
    the guard once and the in-edges of each answer (`_check_closures`)."""
    _check_closures(seed, rnd, lambda p: p.count(None) == len(p) - 1
                    and p[0] is not None)


@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_lone_free_end_closures_with_more_free_arguments_match_the_closed_form(
    seed, rnd
):
    """The closure calls with a lone free end and at least one more free
    argument: `areSubClasses(X,Y)`, `areImpOntologies(X,Y)` and six
    `areStatements` shapes. They run left-linearly when the last argument
    is the lone free end, else in the mirror order. With a free property
    the call comes before the guard, so `isTransitive` is read once per
    answer (`_check_closures`)."""
    _check_closures(seed, rnd, lambda p: p.count(None) < len(p) - 1)


def _reference_evaluate(base, memo, counters, steps, substs):
    """`evaluate` as it ran before steps were sized: it extends the
    batch one substitution at a time and has no batch limit on EOB
    steps. An IOB step runs `engine.evaluate` on one substitution at a
    time."""
    try:
        for step in steps:
            if not substs:
                break
            out = []
            args, extras = step.args, step.extras
            if step.eob:
                probe = base.probes.get(step.access)
                if probe is None:
                    probe = base.probe_index(*step.access)
                get, same, new = probe.get, step.same, step.new
                for s in substs:
                    rows = get(args(s + extras), ())
                    if same:
                        rows = _same_rows(rows, same)
                    if rows:
                        out.extend(map(s.__add__, map(new, rows)))
                counters.eob_accesses += len(out)
            else:
                for s in substs:
                    out += engine.evaluate(base, memo, counters, [step], [s])
            substs = out
        return substs
    except BaseException:
        memo._drop_active()
        raise


@given(st.integers(0, 2**32 - 1), st.data())
def test_sized_evaluate_matches_the_reference(seed, data):
    """`evaluate` sizes each step before it builds it, and makes the
    batches, in the same order, the counters and the tables of the
    per-substitution reference after every step of a random query body
    in a drawn order."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    query = random_query(rng, base)
    body = [query.body[i] for i in data.draw(
        st.permutations(range(len(query.body)))
    )]
    runs = []
    for run in (engine.evaluate, _reference_evaluate):
        memo = MemoTable()
        memo.bind(base)
        counters = engine.Counters()
        batch: list[tuple] = [()]
        batches = []
        for step in engine.compile_query(memo, body, {}):
            batch = run(base, memo, counters, [step], batch)
            batches.append(
                (batch, counters.inferred_facts, counters.eob_accesses)
            )
        runs.append((batches, len(memo.tables)))
    assert runs[0] == runs[1], body


def test_solve_sequence_refuses_an_empty_body(cars_base):
    with pytest.raises(SchemaError) as info:
        solve_sequence(cars_base, [])
    assert str(info.value) == "solve_sequence requires at least one atom"
