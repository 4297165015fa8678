import ast
import itertools
import random
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
    Term,
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
from conftest import bottom_up_oracle, random_base


def test_other_modules_use_only_the_engines_public_names():
    """No module but the engine imports or reads an underscore name of
    `engine`: the executor and the analyzer run on its public core."""
    private = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "engine"):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "engine"):
                names = [node.attr]
            else:
                continue
            private += [f"{path.name}: {n}" for n in names if n.startswith("_")]
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
    assert result.answers == []


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


def test_table_entry_cap_enforced():
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(30)
    )
    memo = MemoTable(max_entries=10)
    with pytest.raises(EngineLimitError):
        solve(base, parse_atom("areSubClasses(X,Y)"), memo)


def test_memo_usable_after_table_entry_cap_error():
    base = OntologyBase.from_facts(
        parse_atom(f"subClassOf(c{i},c{i + 1})") for i in range(30)
    )
    memo = MemoTable(max_entries=40)
    with pytest.raises(EngineLimitError):
        solve(base, parse_atom("areSubClasses(c0,X)"), memo)
    # the partial tables of the aborted group are gone; complete ones stay,
    # and no frame of the aborted calls is left on the dependency stack
    assert not memo._active
    assert not memo._dep_stack
    assert memo._entries == sum(len(t) for t in memo.tables.values())
    memo.max_entries = 1_000_000
    for start, ancestors in (("c20", 10), ("c0", 30)):
        atom = parse_atom(f"areSubClasses({start},X)")
        assert len(solve(base, atom, memo).answers) == ancestors
    atom = parse_atom("areSubClasses(c10,X)")
    assert len(solve_sequence(base, [atom], memo=memo)[0]) == 20


def test_rule_program_is_compiled_once_per_process(cars_base):
    first, second = MemoTable(), MemoTable()
    atom = parse_atom("areClasses(C,O)")
    # tables stay per memo: the second memo pays the whole derivation again
    assert _counts(solve(cars_base, atom, first)) == _counts(
        solve(cars_base, atom, second)
    )
    compiled = engine._plan.cache_info()

    # a memo on another base reuses the same plans, even after the base
    # grows past the memo's binding
    base = OntologyBase.from_facts([parse_atom("isClass(a,o)")])
    memo = MemoTable()
    memo.bind(base)
    base.assert_fact(parse_atom("isClass(b,o)"))
    assert len(solve(base, atom, memo).answers) == 2
    after = engine._plan.cache_info()
    assert after.misses == compiled.misses


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
    # one table per node c0..c10 holding its 10-i ancestors; each of the
    # ten nodes with an edge reads it once per rule
    assert _counts(result) == (55, 20)


def _deep_chain_base(depth=300):
    facts = [parse_atom("isTransitive(p)")]
    for j in range(depth):
        facts.append(parse_atom(f"subClassOf(c{j},c{j + 1})"))
        facts.append(parse_atom(f"isStatement(s{j},p,s{j + 1})"))
    return OntologyBase.from_facts(facts)


@pytest.mark.parametrize("query, answers, counts", [
    ("areSubClasses(c0,X)", 300, (45150, 600)),
    ("areSubClasses(c150,X)", 150, (11325, 300)),
    ("areSubClasses(c290,X)", 10, (55, 20)),
    ("areStatements(s0,p,X)", 300, (45150, 901)),
    ("areStatements(s150,p,X)", 150, (11325, 451)),
    ("areStatements(s290,p,X)", 10, (55, 31)),
])
def test_deep_chain_counters(query, answers, counts):
    """n = 300 - k nodes below the call: one table per node, n(n+1)/2
    answers. Each node with an edge reads one row per rule (2n accesses);
    areStatements also reads isTransitive(p) once per node, the last one
    included (3n + 1)."""
    result = solve(_deep_chain_base(), parse_atom(query))
    assert len(result.answers) == answers
    assert _counts(result) == counts


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
    (["areIndividuals(X,c150)"], 151, (301, 904)),
    # an IOB step followed by another step extends each substitution
    (["areSubClasses(c150,X)", "isClass(X,O)"], 150, (11325, 450)),
    (["areIndividuals(I,c150)", "isIndividual(I,C)"], 151, (301, 1055)),
])
def test_typed_chain_counters(queries, answers, counts):
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
    ("areSubClasses(a,a)", 1, (3, 12)),
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


def test_cyclic_group_is_reexpanded_to_fixpoint():
    base = OntologyBase.from_facts(parse_atom(f) for f in _CYCLE)
    result = solve(base, parse_atom("areSubClasses(a,X)"))
    assert {str(a) for a in result.answers} == {
        "areSubClasses(a,a)", "areSubClasses(a,b)", "areSubClasses(a,c)",
    }
    # three tables of three answers. Each call reads 2 rows per pass and
    # makes two passes (the second finds nothing new): 12. Then the group
    # leader saturates the group in two rounds over its three calls: 12.
    assert _counts(result) == (9, 24)


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
    # a recursive group, so re-expanded; of the rows read for
    # subClassOf(X,X) only d's self-loop counts as an access
    assert _counts(renamed) == _counts(result) == (14, 69)


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


def _instances(atom, facts):
    """Facts that instantiate `atom`."""

    def matches(fact):
        binding = {}
        for t, f in zip(atom.args, fact.args):
            value = binding.setdefault(t.value, f.value) if t.is_var else t.value
            if value != f.value:
                return False
        return True

    return {f for f in facts if f.predicate == atom.predicate and matches(f)}


@given(_bases, st.data())
def test_engine_matches_oracle_for_every_binding_pattern(base, data):
    oracle = bottom_up_oracle(base)
    for pred in IOB_PREDICATES:
        for atom in _call_atoms(pred, data):
            answers = solve(base, atom).answers
            assert set(answers) == _instances(atom, oracle), atom
            assert list(answers) == sorted(
                _instances(atom, oracle), key=str
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
