import pytest

from dobquery import (
    Atom,
    BUILTIN_SCHEMA,
    PredicateKind,
    Query,
    Rule,
    SchemaError,
    Term,
    UnsafeRuleError,
    builtin_iob_program,
)
from dobquery.model import schema_for


def test_term_kinds():
    c = Term.const("vehicle")
    v = Term.var("X")
    assert not c.is_var and v.is_var
    assert c.value == "vehicle" and v.value == "X"


def test_term_rejects_empty_value():
    with pytest.raises(ValueError):
        Term.const("")


def test_term_rendering_quotes_nonstandard_constants():
    assert str(Term.const("carsOnt")) == "carsOnt"
    assert str(Term.const("SUV")) == "'SUV'"
    assert str(Term.const("a b")) == "'a b'"
    assert str(Term.const("owl:Thing")) == "owl:Thing"


def test_atom_variables_first_occurrence_order():
    atom = Atom("q", (Term.var("B"), Term.const("k"), Term.var("A"), Term.var("B")))
    assert atom.variables == ("B", "A")
    assert not atom.is_ground


def test_rule_safety_enforced():
    head = Atom("areClasses", (Term.var("C"), Term.var("O")))
    body = (Atom("isClass", (Term.var("C"), Term.var("O2"))),)
    with pytest.raises(UnsafeRuleError):
        Rule(head, body)


def test_rule_rejects_empty_body():
    head = Atom("areClasses", (Term.var("C"), Term.var("O")))
    with pytest.raises(UnsafeRuleError):
        Rule(head, ())


def test_query_checks_body_predicates_are_builtin():
    head = Atom("q", (Term.var("X"),))
    with pytest.raises(SchemaError):
        Query(head, (Atom("noSuchPred", (Term.var("X"),)),))


def test_schema_has_expected_predicates():
    eob = [n for n, s in BUILTIN_SCHEMA.items() if s.kind is PredicateKind.EOB]
    iob = [n for n, s in BUILTIN_SCHEMA.items() if s.kind is PredicateKind.IOB]
    assert len(eob) == 10 and len(iob) == 5
    assert "isOProperty" in eob and BUILTIN_SCHEMA["isOProperty"].arity == 3
    assert "areSubClasses" in iob


def test_schema_for_checks_arity():
    with pytest.raises(SchemaError):
        schema_for("isClass", 3)
    with pytest.raises(SchemaError):
        schema_for("bogus")


def test_program_contains_direct_subclass_rule():
    program = builtin_iob_program()
    texts = [str(r) for r in program]
    assert "areSubClasses(C1,C2) :- subClassOf(C1,C2)" in texts


def test_program_contains_recursive_subclass_rule():
    texts = [str(r) for r in builtin_iob_program()]
    assert (
        "areSubClasses(C1,C2) :- subClassOf(C1,C3), areSubClasses(C3,C2)"
        in texts
    )


def test_program_rule_counts_by_head():
    # areIndividuals: membership, subclass closure, object-property domain,
    # object-property range, datatype-property domain, allValuesFrom filler.
    heads = {}
    for rule in builtin_iob_program():
        heads[rule.head.predicate] = heads.get(rule.head.predicate, 0) + 1
    assert heads == {
        "areSubClasses": 2,
        "areImpOntologies": 2,
        "areClasses": 2,
        "areIndividuals": 6,
        "areStatements": 2,
    }


def test_program_rules_are_safe_and_well_typed():
    for rule in builtin_iob_program():
        head_schema = schema_for(rule.head.predicate)
        assert head_schema.kind is PredicateKind.IOB
        body_vars = {v for a in rule.body for v in a.variables}
        assert set(rule.head.variables) <= body_vars
        for atom in rule.body:
            schema_for(atom.predicate, len(atom.args))


def test_program_heads_use_distinct_variables_and_rules_hold_no_constants():
    # The engine compiles the program once per process: a plan holds no
    # constant ids and binds each head argument to its own variable.
    for rule in builtin_iob_program():
        head = [t.value for t in rule.head.args]
        assert all(t.is_var for t in rule.head.args), rule
        assert len(set(head)) == len(head), rule
        for atom in rule.body:
            assert all(t.is_var for t in atom.args), rule


def test_recursion_limited_to_expected_predicates():
    recursive = set()
    for rule in builtin_iob_program():
        if any(a.predicate == rule.head.predicate for a in rule.body):
            recursive.add(rule.head.predicate)
    assert recursive == {"areSubClasses", "areImpOntologies", "areStatements"}
