from dataclasses import FrozenInstanceError

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
from dobquery.model import ArgDomain, PredicateSchema, schema_for


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


def test_atom_from_a_built_tuple_is_the_same_value():
    """`Atom` keeps a tuple of terms as the same object and copies a list
    or a generator into a tuple; each is the same value: equal both ways,
    the same hash, repr and text, and as immutable."""
    args = (Term.const("carsOnt"), Term.var("X"), Term.const("a b"))
    made = Atom("q", args)
    assert made.args is args and made.variables == ("X",)
    for other in (list(args), (t for t in args)):
        public = Atom("q", other)
        assert type(public.args) is tuple and public.args == args
        assert made == public and public == made
        assert hash(made) == hash(public)
        assert repr(made) == repr(public) and str(made) == str(public)
    assert str(made) == "q(carsOnt,X,'a b')"
    assert made != Atom("r", args) and made != Atom("q", args[:2])
    for field, value in (("predicate", "r"), ("args", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(made, field, value)
    assert (made.predicate, made.args) == ("q", args)


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


@pytest.mark.parametrize("kind, value, message", [
    ("var", "", "empty term value"),
    ("number", "1", "bad term kind: 'number'"),
])
def test_term_constructor_refusals(kind, value, message):
    with pytest.raises(ValueError, match=message):
        Term(kind, value)


@pytest.mark.parametrize("make, message", [
    (Query, "query q(X) has an empty body"),
    (Rule, "rule for q(X) has an empty body"),
])
def test_empty_body_is_refused(make, message):
    head = Atom("q", (Term.var("X"),))
    with pytest.raises(UnsafeRuleError) as info:
        make(head, ())
    assert str(info.value) == message


def test_schema_needs_one_domain_per_argument():
    with pytest.raises(SchemaError) as info:
        PredicateSchema("p", 2, PredicateKind.EOB, (ArgDomain.CLASS,))
    assert str(info.value) == "p: 2 args, 1 domains"
