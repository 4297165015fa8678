import random
import re
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dobquery import parsing
from dobquery import (
    Atom,
    DobError,
    ParseError,
    SynthConfig,
    Term,
    parse_atom,
    parse_dob,
    parse_owl,
    parse_query,
    render_dob,
    translate_documents,
)
from dobquery.model import (
    BUILTIN_SCHEMA, EOB_PREDICATES, PredicateKind, schema_for,
)
from dobquery.stats import catalog_from_text, catalog_to_text
from conftest import random_catalog


def test_parse_dob_single_fact():
    facts = parse_dob("isClass(vehicle,carsOnt).\n")
    assert [str(f) for f in facts] == ["isClass(vehicle,carsOnt)"]


def test_parse_dob_comments_and_blanks():
    assert parse_dob("% comment\n\n   \n") == []
    facts = parse_dob("isOntology(a). % trailing comment\n")
    assert len(facts) == 1


def test_parse_dob_rejects_variables():
    with pytest.raises(ParseError, match="variable in fact"):
        parse_dob("isClass(X,carsOnt).\n")


def test_parse_dob_rejects_unknown_predicate():
    with pytest.raises(ParseError, match="unknown predicate"):
        parse_dob("isWidget(a,b).\n")


@pytest.mark.parametrize("line", [
    "areClasses(c,o).", "areClasses( c , o ).", "areClasses('c',o).",
], ids=["plain", "spaced", "quoted"])
def test_parse_dob_refuses_an_intensional_fact_at_its_line(line):
    """An IOB fact is derived by the rules, never stated: either reading
    path refuses it at its line."""
    with pytest.raises(ParseError) as err:
        parse_dob(f"isOntology(o).\n{line}\n", filename="bad.dob")
    assert str(err.value) == (
        "bad.dob:2:1: cannot assert intensional fact: areClasses(c,o)"
    )


def test_parse_dob_reports_location():
    with pytest.raises(ParseError) as err:
        parse_dob("isOntology(a).\nisClass(vehicle carsOnt).\n", filename="f.dob")
    assert err.value.location.file == "f.dob"
    assert err.value.location.line == 2


def test_parse_dob_quoted_constants():
    facts = parse_dob("isClass('SUV Model',carsOnt).\n")
    assert facts[0].args[0].value == "SUV Model"


def test_round_trip_random_fact_sets():
    rng = random.Random(5)
    pool = ["vehicle", "SUV", "a b", "owl:Thing", "x'y", "v1.2:z"]
    preds = [("isClass", 2), ("isStatement", 3), ("isOntology", 1)]
    facts = []
    for _ in range(40):
        name, arity = rng.choice(preds)
        args = tuple(Term.const(rng.choice(pool)) for _ in range(arity))
        facts.append(Atom(name, args))
    text = render_dob(facts)
    assert parse_dob(text) == facts


def test_percent_inside_quotes_is_not_a_comment():
    facts = parse_dob("isOntology('50% off'). % a 'comment'\n")
    assert [f.args[0].value for f in facts] == ["50% off"]
    assert parse_dob(render_dob(facts)) == facts


# Everything `str.splitlines` splits on.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# Any character but a line break, with the ones the format quotes, escapes
# or reads as a comment drawn often.
_constants = st.text(
    st.one_of(
        st.sampled_from("%'\\\" "),
        st.characters(exclude_characters=LINE_BREAKS),
    ),
    min_size=1,
)


@st.composite
def _facts(draw, constants=_constants):
    pred = draw(st.sampled_from(EOB_PREDICATES))
    args = draw(st.lists(
        constants, min_size=BUILTIN_SCHEMA[pred].arity,
        max_size=BUILTIN_SCHEMA[pred].arity,
    ))
    return Atom(pred, tuple(map(Term.const, args)))


@given(st.lists(_facts(), max_size=8))
def test_dob_round_trip_property(facts):
    assert parse_dob(render_dob(facts)) == facts


@given(_facts(), st.sampled_from(LINE_BREAKS), _constants)
def test_render_dob_refuses_line_breaks(fact, line_break, text):
    value = text + line_break + text
    bad = Atom(fact.predicate, (Term.const(value),) + fact.args[1:])
    with pytest.raises(DobError, match="cannot write fact") as err:
        render_dob([fact, bad])
    assert repr(str(bad)) in str(err.value)


_PLAIN = st.from_regex(r"[a-z][A-Za-z0-9_:.]{0,4}", fullmatch=True)

# An argument: a plain, quoted or uppercase (variable) token, or one the
# format rejects.
_fact_token = st.one_of(
    _PLAIN,
    _PLAIN.map(lambda c: f"'{c}'"),
    st.from_regex(r"[A-Z][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from(["", "-", "a-b", "a b", "'x", "1a", "_a", "a(b)"]),
)
_space = st.sampled_from(["", "", "", " "])


@st.composite
def _fact_lines(draw):
    """Fact lines with right, wrong or unknown predicates and arities:
    half of them plain (no spaces, plain tokens) but for what follows the
    dot, half mixing any tokens and spaces."""
    pred = draw(st.sampled_from(
        [*BUILTIN_SCHEMA, "isclass", "IsClass", "isClass.x", "pred"]
    ))
    arity = draw(st.one_of(
        st.just(BUILTIN_SCHEMA[pred].arity if pred in BUILTIN_SCHEMA else 1),
        st.integers(min_value=0, max_value=4),
    ))
    tail = draw(st.sampled_from(["", "", "", "x", ".", " x", "(", ",a"]))
    if draw(st.booleans()):
        args = ",".join(draw(_PLAIN) for _ in range(arity))
        return f"{pred}({args}).{tail}"
    args = [draw(_fact_token) for _ in range(arity)]
    comma = draw(_space) + "," + draw(_space)
    return (
        f"{draw(_space)}{pred}{draw(_space)}({comma.join(args)}){draw(_space)}"
        f".{tail}"
    )


@given(_fact_lines())
@example("isClass(a,B).")  # a variable
@example("isClass(a,b,c).")  # a wrong arity
@example("isClass(a,b).x")  # a trailing token
@example("isClass(a,b)")  # no closing dot
def test_plain_fact_regex_agrees_with_the_tokenizer(line):
    """A line read by the plain-fact regex gives the atom the tokenizer
    gives it, and a line either path rejects fails with the same text."""

    def read():
        try:
            return parse_dob(line, filename="f.dob")
        except ParseError as exc:
            return str(exc)

    fast = read()
    with mock.patch.object(parsing, "_PLAIN_FACT_RE", re.compile(r"(?!)")):
        slow = read()
    assert fast == slow


def test_parse_owl_class_forms(data_dir):
    doc = parse_owl((data_dir / "carsOnt.owl").read_text(), "carsOnt.owl")
    assert doc.ontology_uri == "carsOnt"
    class_names = [
        s.name for s in doc.statements if type(s).__name__ == "ClassDeclaration"
    ]
    assert class_names == ["vehicle", "suv", "car", "dealer"]


def test_parse_owl_individual_forms():
    doc = parse_owl("Ontology(o)\nindividual(s123 type(suv))\n")
    ind = doc.statements[0]
    assert ind.name == "s123" and ind.types == ("suv",)


def test_parse_owl_rejects_unsupported_construct():
    with pytest.raises(ParseError, match="unsupported construct: complementOf"):
        parse_owl("Ontology(o)\nClass (c complementOf d)\n")


def test_parse_owl_rejects_multiple_domains():
    text = (
        "Ontology(o)\n"
        "ObjectProperty(p domain(a))\n"
        "ObjectProperty(p domain(b))\n"
    )
    with pytest.raises(ParseError, match="class intersection"):
        parse_owl(text)


@pytest.mark.parametrize("first, second, message", [
    ("ObjectProperty(p domain(a))", "ObjectProperty(p domain(b))",
     "domains a and b for property p"),
    ("ObjectProperty(p range(a))", "ObjectProperty(p range(b))",
     "ranges a and b for property p"),
    ("DataProperty(d domain(a))", "DatatypeProperty(d domain(b))",
     "domains a and b for property d"),
])
def test_translate_refuses_conflicting_clauses_across_documents(
    first, second, message
):
    docs = [parse_owl(f"Ontology(o1)\n{first}\n", "a.owl"),
            parse_owl(f"Ontology(o2)\n{second}\n", "b.owl")]
    with pytest.raises(ParseError) as info:
        translate_documents(docs)
    # each clause starts after the property's name and a space
    column = second.index(" ") + 2
    assert info.value.location == parsing.SourceLocation("b.owl", 2, column)
    assert str(info.value) == (
        f"b.owl:2:{column}: unsupported construct: {message} in "
        f"different documents (class intersection); first declared at "
        f"a.owl:2:{first.index(' ') + 2}"
    )


def test_translate_accepts_a_clause_repeated_across_documents():
    docs = [
        parse_owl("Ontology(o1)\nObjectProperty(p domain(a))\n"
                  "ObjectProperty(p range(b))\n"),
        parse_owl("Ontology(o2)\nObjectProperty(p domain(a))\n"
                  "ObjectProperty(p range(b))\n"),
    ]
    assert [str(f) for f in translate_documents(docs)] == [
        "isOntology(o1)", "isOntology(o2)", "isOProperty(p,a,b)"
    ]


def test_parse_owl_requires_header():
    with pytest.raises(ParseError, match="Ontology"):
        parse_owl("Class (c partial Thing)\n")


def test_parse_owl_restriction():
    doc = parse_owl(
        "Ontology(o)\nClass(c1 partial restriction(p allValuesFrom(c2)))\n"
    )
    facts = translate_documents([doc])
    assert "allValuesFrom(c1,p,c2)" in {str(f) for f in facts}


def test_translate_subclass_emits_both_facts():
    doc = parse_owl("Ontology(carsOnt)\nClass (suv partial vehicle)\n")
    facts = {str(f) for f in translate_documents([doc])}
    assert "subClassOf(suv,vehicle)" in facts
    assert "isClass(suv,carsOnt)" in facts


def test_translate_merges_object_property_domain_range():
    doc = parse_owl(
        "Ontology(o)\n"
        "ObjectProperty(sells domain(dealer))\n"
        "ObjectProperty(sells range(vehicle))\n"
    )
    facts = {str(f) for f in translate_documents([doc])}
    assert "isOProperty(sells,dealer,vehicle)" in facts


def test_translate_defaults_missing_domain_range_to_thing():
    doc = parse_owl("Ontology(o)\nObjectProperty(p)\nDatatypeProperty(d)\n")
    facts = {str(f) for f in translate_documents([doc])}
    assert "isOProperty(p,owl:Thing,owl:Thing)" in facts
    assert "isDProperty(d,owl:Thing)" in facts


def test_translate_multi_parent_class():
    doc = parse_owl("Ontology(o)\nClass(a partial c1 c2 c3)\n")
    facts = {str(f) for f in translate_documents([doc])}
    assert {"subClassOf(a,c1)", "subClassOf(a,c2)", "subClassOf(a,c3)"} <= facts


def test_translate_imports_value_form():
    doc = parse_owl("Ontology(o1)\nIndividual(o1 value(owl:imports o2))\n")
    facts = {str(f) for f in translate_documents([doc])}
    assert "impOntology(o1,o2)" in facts


def test_translate_transitive_property():
    """OWL Lite's TransitiveProperty is an ObjectProperty, so the generic
    form declares an object property, as `ObjectProperty(p Transitive)`
    does."""
    doc = parse_owl("Ontology(o)\nProperty(p Transitive)\n")
    assert [str(f) for f in translate_documents([doc])] == [
        "isOntology(o)", "isTransitive(p)",
        "isOProperty(p,owl:Thing,owl:Thing)",
    ]


@pytest.mark.parametrize("keyword, declared, with_domain", [
    ("ObjectProperty", "isOProperty(t,owl:Thing,owl:Thing)",
     "isOProperty(t,c,owl:Thing)"),
    ("DatatypeProperty", "isDProperty(t,owl:Thing)", "isDProperty(t,c)"),
])
def test_transitive_property_is_declared_too(keyword, declared, with_domain):
    text = f"Ontology(o)\n{keyword}(t Transitive)\n"
    facts = [str(f) for f in translate_documents([parse_owl(text)])]
    assert facts == ["isOntology(o)", "isTransitive(t)", declared]
    text += f"{keyword}(t domain(c))\n"
    facts = [str(f) for f in translate_documents([parse_owl(text)])]
    assert facts == ["isOntology(o)", "isTransitive(t)", with_domain]


@pytest.mark.parametrize("text, found, where", [
    ("Ontology(o) x", "x", "f.owl:1:13"),
    ("Ontology(o)\nimports p q", "q", "f.owl:2:11"),
    ("Ontology(o)\nClass(c) Class(d)", "Class", "f.owl:2:10"),
    ("Ontology(o)\nClass(c partial d) )", ")", "f.owl:2:20"),
    ("Ontology(o)\nObjectProperty(p Transitive) x", "x", "f.owl:2:30"),
    ("Ontology(o)\nProperty(p Transitive) x", "x", "f.owl:2:24"),
    ("Ontology(o)\nIndividual(i type(c)) x", "x", "f.owl:2:23"),
])
def test_parse_owl_refuses_text_after_a_construct(text, found, where):
    with pytest.raises(ParseError) as info:
        parse_owl(text, "f.owl")
    assert str(info.value) == (
        f"{where}: expected the end of the line, found {found!r}"
    )


def test_translate_output_is_ground_eob(data_dir):
    docs = [
        parse_owl((data_dir / name).read_text(), name)
        for name in ("carsOnt.owl", "source1.owl", "source2.owl")
    ]
    facts = translate_documents(docs)
    for f in facts:
        assert f.is_ground
        assert schema_for(f.predicate).kind is PredicateKind.EOB


def test_translated_cars_matches_golden_base(data_dir, cars_base):
    docs = [
        parse_owl((data_dir / name).read_text(), name)
        for name in ("carsOnt.owl", "source1.owl", "source2.owl")
    ]
    facts = translate_documents(docs)
    assert set(map(str, facts)) == set(map(str, cars_base.facts()))
    is_class = [f for f in facts if f.predicate == "isClass"]
    assert len(is_class) == 4
    assert all(f.args[1].value == "carsOnt" for f in is_class)


def test_parse_query_cars_example():
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    assert str(q.head) == "q(O)"
    assert [str(a) for a in q.body] == [
        "areClasses(C,O)",
        "isDProperty(traction,C)",
    ]


def test_parse_query_unsafe_head():
    with pytest.raises(ParseError, match="unsafe"):
        parse_query("q(Z):-isClass(C,O).")


def test_parse_query_unknown_predicate():
    with pytest.raises(ParseError, match="unknown predicate"):
        parse_query("q(X):-mystery(X).")


def test_parse_query_constant_binding():
    q = parse_query("q(C):-isClass(C,carsOnt).")
    assert not q.body[0].args[1].is_var


def test_parse_atom_roundtrip():
    atom = parse_atom("isStatement(s1,price,'12 000')")
    assert parse_atom(str(atom)) == atom


@pytest.mark.parametrize("read, text, where", [
    (parse_dob, "isOntology(o).\nisOntology('').\n", "f:2:12"),
    (parse_dob, 'isClass(a,"").\n', "f:1:11"),
    (parse_query, "q(X):-isClass(X,'').", "f:1:17"),
    (parse_atom, "isClass('',o)", "f:1:9"),
], ids=["dob", "dob-double-quotes", "query", "atom"])
def test_empty_quoted_constant_is_refused_at_its_location(read, text, where):
    with pytest.raises(ParseError) as err:
        read(text, filename="f")
    assert str(err.value) == f"{where}: empty quoted constant"


_DOB_TEXT = (
    "isOntology('o').\n"
    "isClass('SUV Model',carsOnt). % a 'comment'\n"
    "isStatement(car1, hasPrice, \"50% off\").\n"
)
_QUERY_TEXTS = (
    "q(O):-areClasses(C,O),isDProperty(traction,C).",
    "q(X,'a b') :- isStatement(X,P,'5% off'), isClass(X,'c').",
)
# Characters the readers treat specially, drawn often, and any others.
_EDIT_CHARS = st.one_of(
    st.sampled_from("'\"%, ().:-\\\nXa_1"), st.characters()
)


@st.composite
def _mutated(draw, text):
    """`text` with one to four characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + draw(_EDIT_CHARS) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(_EDIT_CHARS) + text[at + 1:]
    return text


@pytest.mark.parametrize("read, texts", [
    (parse_dob, (_DOB_TEXT,)), (parse_query, _QUERY_TEXTS),
    (catalog_from_text, (catalog_to_text(random_catalog(random.Random(0))),)),
    (SynthConfig.from_json, (SynthConfig().to_json(),)),
], ids=["dob", "query", "catalog", "synth-config"])
@given(data=st.data())
def test_readers_raise_only_dob_errors_on_mutated_text(read, texts, data):
    """However a fact file, a query, a catalog or a generator config is
    garbled, the reader either reads it or raises a `DobError`, which the
    CLI reports with exit 2."""
    text = data.draw(st.sampled_from(texts).flatmap(_mutated))
    try:
        read(text)
    except DobError:
        pass
