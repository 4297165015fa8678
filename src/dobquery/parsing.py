"""Parsers for the fact format, the OWL abstract-syntax subset, and queries.

File formats:
  .dob   one ground fact per line, `pred(c1,...,cn).`; `%` outside quotes
         starts a comment
  .owl   functional abstract syntax, one construct per line, with an
         `Ontology(<uri>)` header and `imports <uri>` lines
  query  Datalog syntax `head(Vars) :- atom, ..., atom.`
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import NoReturn

from .model import (
    CONSTANT_RE,
    Atom,
    DobError,
    PredicateKind,
    Query,
    SchemaError,
    Term,
    UnsafeRuleError,
    schema_for,
)


@dataclass(frozen=True, slots=True)
class SourceLocation:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(DobError):
    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: {message}")
        self.location = location


# A quoted constant: single or double quotes, backslash escapes.
_QUOTED = r"'(?:\\.|[^'\\])*'" r'|"(?:\\.|[^"\\])*"'

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<arrow>:-)
  | (?P<punct>[(),.])
  | (?P<quoted>{_QUOTED})
  | (?P<name>[A-Za-z][A-Za-z0-9_:.]*)
    """,
    re.VERBOSE,
)

# OWL lines: parentheses and names, which may start with `_` and hold `-`.
_OWL_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<punct>[()])|(?P<name>[A-Za-z_][A-Za-z0-9_:.\-]*)"
)


def _tokenize(text: str, filename: str, line_no: int, token_re: re.Pattern):
    """Yield (kind, value, SourceLocation) triples for one line of input."""
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        loc = SourceLocation(filename, line_no, pos + 1)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", loc)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "quoted":
            body = value[1:-1]
            value = re.sub(r"\\(.)", r"\1", body)
            yield "const", value, loc
        elif m.lastgroup == "name":
            yield "name", value, loc
        else:
            yield value, value, loc
    yield "end", "", SourceLocation(filename, line_no, len(text) + 1)


class _TokenStream:
    def __init__(
        self, text: str, filename: str, line_no: int, token_re=_TOKEN_RE
    ):
        self.tokens = list(_tokenize(text, filename, line_no, token_re))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _term_of(name: str) -> Term:
    if name[0].isupper():
        return Term.var(name)
    return Term.const(name)


def _parse_term(ts: _TokenStream) -> Term:
    kind, value, loc = ts.next()
    if kind == "const":
        if not value:
            raise ParseError("empty quoted constant", loc)
        return Term.const(value)
    if kind == "name":
        return _term_of(value)
    raise ParseError(f"expected a term, found {value!r}", loc)


def _parse_atom(ts: _TokenStream) -> Atom:
    kind, name, loc = ts.next()
    if kind != "name":
        raise ParseError(f"expected a predicate name, found {name!r}", loc)
    ts.expect("(")
    args = [_parse_term(ts)]
    while ts.peek()[0] == ",":
        ts.next()
        args.append(_parse_term(ts))
    ts.expect(")")
    return Atom(name, tuple(args))


def parse_atom(text: str, filename: str = "<string>") -> Atom:
    """Parse a single atom such as `isClass(vehicle,carsOnt)`."""
    ts = _TokenStream(text, filename, 1)
    atom = _parse_atom(ts)
    if ts.peek()[0] == ".":
        ts.next()
    ts.expect("end")
    return atom


_QUOTED_OR_PERCENT_RE = re.compile(f"{_QUOTED}|%")


def _strip_comment(line: str) -> str:
    """The line up to its first `%` outside a quoted constant."""
    for m in _QUOTED_OR_PERCENT_RE.finditer(line):
        if m.group() == "%":
            return line[: m.start()]
    return line


# A name that `Term.__str__` writes unquoted.
_NAME = CONSTANT_RE.pattern.removesuffix(r"\Z")

# A fact line as `render_dob` writes it: unquoted constants, no spaces.
_PLAIN_FACT_RE = re.compile(rf"({_NAME})\(({_NAME}(?:,{_NAME})*)\)\.")


def parse_dob(text: str, filename: str = "<string>") -> list[Atom]:
    """Parse the fact format: one ground extensional fact per line.

    A plain line is read by one regex. Any other line (quoted constants,
    inner spaces, variables, malformed input) goes through the tokenizer,
    which reads a plain line to the same atom and reports every error.
    Each (predicate, arity) is checked against the schema at its first line.
    """
    facts = []
    const = cache(Term.const)  # one Term per distinct constant text
    checked: set[tuple[str, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip() if "%" in raw else raw.strip()
        if not line:
            continue
        m = _PLAIN_FACT_RE.fullmatch(line)
        if m is not None:
            pred, args = m.groups()
            atom = Atom(pred, tuple(map(const, args.split(","))))
        else:
            ts = _TokenStream(line, filename, line_no)
            atom = _parse_atom(ts)
            ts.expect(".")
            ts.expect("end")
            if not atom.is_ground:
                raise ParseError(
                    f"variable in fact: {atom}",
                    SourceLocation(filename, line_no, 1),
                )
        if (key := (atom.predicate, len(atom.args))) not in checked:
            try:
                if schema_for(*key).kind is not PredicateKind.EOB:
                    raise SchemaError(f"cannot assert intensional fact: {atom}")
            except SchemaError as exc:
                raise ParseError(str(exc), SourceLocation(filename, line_no, 1))
            checked.add(key)
        facts.append(atom)
    return facts


def render_dob(facts) -> str:
    """Serialize facts one per line; inverse of parse_dob. A constant
    containing a line break (anything `str.splitlines` splits on) cannot be
    written on one line, so it raises DobError."""
    lines = []
    for atom in facts:
        line = f"{atom}.\n"
        if len(line.splitlines()) > 1:
            raise DobError(
                f"cannot write fact {str(atom)!r}: a constant contains a "
                f"line break"
            )
        lines.append(line)
    return "".join(lines)


# --- OWL Lite abstract-syntax subset ---------------------------------------

THING_NAMES = ("Thing", "owl:Thing")
OWL_THING = "owl:Thing"
IMPORTS_PROPERTY = "owl:imports"


@dataclass(frozen=True, slots=True)
class ClassDeclaration:
    name: str
    supers: tuple[str, ...] = ()
    restrictions: tuple[tuple[str, str], ...] = ()  # (property, filler class)


@dataclass(frozen=True, slots=True)
class PropertyDeclaration:
    name: str
    is_object: bool  # an object property; else a datatype property
    domain: str | None = None
    range: str | None = None  # datatype properties carry none
    transitive: bool = False
    # where its domain or range clause is
    location: SourceLocation | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class IndividualDeclaration:
    name: str
    types: tuple[str, ...] = ()
    values: tuple[tuple[str, str], ...] = ()  # (property, value)


OwlStatement = (
    ClassDeclaration
    | PropertyDeclaration
    | IndividualDeclaration
)


@dataclass(slots=True)
class OwlDocument:
    ontology_uri: str
    imports: tuple[str, ...] = ()
    statements: tuple[OwlStatement, ...] = ()


_UNSUPPORTED = {
    "complementof",
    "unionof",
    "intersectionof",
    "oneof",
    "equivalentclasses",
    "equivalentproperties",
    "alldifferent",
    "cardinality",
    "mincardinality",
    "maxcardinality",
    "somevaluesfrom",
    "datatype",
}


def _refuse(word: str, expected: str | None, loc: SourceLocation) -> NoReturn:
    """Refuse `word` where `expected` was due, naming a construct outside
    the subset as unsupported; `expected` None stands for a line's head."""
    if word.lower() in _UNSUPPORTED:
        raise ParseError(f"unsupported construct: {word}", loc)
    if expected is None:
        raise ParseError(f"unknown construct: {word}", loc)
    raise ParseError(f"expected {expected}, found {word!r}", loc)


def _opening(ts: _TokenStream) -> str:
    """Read `( name` and return the name."""
    ts.expect("(")
    return ts.expect("name")[1]


def _wrapped(ts: _TokenStream) -> str:
    """Read `( name )` and return the name."""
    name = _opening(ts)
    ts.expect(")")
    return name


def _parse_class_line(ts: _TokenStream) -> ClassDeclaration:
    name = _opening(ts)
    kind, kw, loc = ts.next()
    if kind == ")":  # bare declaration, no parents
        return ClassDeclaration(name)
    if kw.lower() != "partial":
        _refuse(kw, "'partial'", loc)
    supers: list[str] = []
    restrictions: list[tuple[str, str]] = []
    while True:
        kind, value, loc = ts.next()
        if kind == ")":
            break
        if kind != "name":
            raise ParseError(f"expected a class expression, found {value!r}", loc)
        if value.lower() == "restriction":
            prop = _opening(ts)
            _, kw, loc = ts.next()
            if kw.lower() != "allvaluesfrom":
                _refuse(kw, "'allValuesFrom'", loc)
            restrictions.append((prop, _wrapped(ts)))
            ts.expect(")")
        elif value.lower() in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {value}", loc)
        elif value not in THING_NAMES:
            # Thing is skipped: every declared class is already a class of
            # the ontology.
            supers.append(value)
    return ClassDeclaration(name, tuple(supers), tuple(restrictions))


def _parse_property_line(
    ts: _TokenStream, is_object: bool, seen: set
) -> PropertyDeclaration:
    """Read `( name [domain(x) | range(x) | Transitive] )`. `seen` holds
    the document's (is_object, name, clause) triples so far: a property
    takes one domain and one range. A transitive property is declared
    too, so it is a property of the base as well as transitive."""
    name = _opening(ts)
    kind, kw, loc = ts.next()
    if kind == ")":
        return PropertyDeclaration(name, is_object)
    if kind != "name":
        raise ParseError(f"expected a property clause, found {kw!r}", loc)
    what = kw.lower()
    if what == "transitive":
        ts.expect(")")
        return PropertyDeclaration(name, is_object, transitive=True)
    if what not in ("domain", "range"):
        _refuse(kw, "domain/range/Transitive", loc)
    value = _wrapped(ts)
    ts.expect(")")
    if what == "range" and not is_object:
        raise ParseError("datatype properties carry no range in this subset", loc)
    if (is_object, name, what) in seen:
        raise ParseError(
            f"unsupported construct: multiple {what}s for property {name} "
            f"(class intersection)",
            loc,
        )
    seen.add((is_object, name, what))
    return PropertyDeclaration(name, is_object, location=loc, **{what: value})


def _parse_individual_line(ts: _TokenStream) -> IndividualDeclaration:
    name = _opening(ts)
    types: list[str] = []
    values: list[tuple[str, str]] = []
    while True:
        kind, kw, loc = ts.next()
        if kind == ")":
            break
        if kw.lower() == "type":
            types.append(_wrapped(ts))
        elif kw.lower() == "value":
            prop = _opening(ts)
            values.append((prop, ts.expect("name")[1]))
            ts.expect(")")
        else:
            _refuse(kw, "type/value clause", loc)
    return IndividualDeclaration(name, tuple(types), tuple(values))


def parse_owl(text: str, filename: str = "<string>") -> OwlDocument:
    """Parse one ontology document in the functional abstract syntax."""
    ontology_uri: str | None = None
    imports: list[str] = []
    statements: list[OwlStatement] = []
    seen: set[tuple[bool, str, str]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip() if "%" in raw else raw.strip()
        if not line:
            continue
        ts = _TokenStream(line, filename, line_no, _OWL_TOKEN_RE)
        kind, head, loc = ts.next()
        if kind != "name":
            raise ParseError(f"expected a construct, found {head!r}", loc)
        low = head.lower()
        if low == "ontology":
            uri = _wrapped(ts)
            if ontology_uri is not None:
                raise ParseError("multiple Ontology headers in one document", loc)
            ontology_uri = uri
        elif low == "imports":
            imports.append(ts.expect("name")[1])
        elif low == "class":
            statements.append(_parse_class_line(ts))
        elif low in ("objectproperty", "datatypeproperty", "dataproperty"):
            is_object = low == "objectproperty"
            statements.append(_parse_property_line(ts, is_object, seen))
        elif low == "property":
            name = _opening(ts)
            _, kw, kw_loc = ts.expect("name")
            if kw.lower() != "transitive":
                raise ParseError(f"expected 'Transitive', found {kw!r}", kw_loc)
            ts.expect(")")
            # OWL Lite's TransitiveProperty is an ObjectProperty
            statements.append(PropertyDeclaration(name, True, transitive=True))
        elif low == "individual":
            statements.append(_parse_individual_line(ts))
        else:
            _refuse(head, None, loc)
        kind, value, loc = ts.next()
        if kind != "end":
            raise ParseError(
                f"expected the end of the line, found {value!r}", loc
            )

    if ontology_uri is None:
        raise ParseError(
            "missing Ontology(<uri>) header", SourceLocation(filename, 1, 1)
        )
    return OwlDocument(ontology_uri, tuple(imports), tuple(statements))


def _fact(pred: str, *consts: str) -> Atom:
    return Atom(pred, tuple(Term.const(c) for c in consts))


def translate_documents(docs) -> list[Atom]:
    """Translate parsed documents into EOB facts.

    Property domain/range declarations are merged across the whole batch
    (a second, different domain or range is refused at its clause, naming
    where the first is); missing
    domains/ranges default to owl:Thing. `Class(A partial C)` yields
    both the class membership fact and the subClassOf edge, so that a
    class declared via a superclass still counts as a class of its ontology.
    """
    facts: list[Atom] = []
    seen: set[Atom] = set()

    def emit(atom: Atom):
        if atom not in seen:
            seen.add(atom)
            facts.append(atom)

    # (is_object, name) -> clause -> the declaration that first gave it
    props: dict[tuple[bool, str], dict[str, PropertyDeclaration]] = {}

    for doc in docs:
        emit(_fact("isOntology", doc.ontology_uri))
        for imported in doc.imports:
            emit(_fact("impOntology", doc.ontology_uri, imported))
        for st in doc.statements:
            if isinstance(st, ClassDeclaration):
                emit(_fact("isClass", st.name, doc.ontology_uri))
                for sup in st.supers:
                    emit(_fact("subClassOf", st.name, sup))
                for prop, filler in st.restrictions:
                    emit(_fact("allValuesFrom", st.name, prop, filler))
            elif isinstance(st, PropertyDeclaration):
                clauses = props.setdefault((st.is_object, st.name), {})
                for what in ("domain", "range"):
                    new = getattr(st, what)
                    if new is None:
                        continue
                    first = clauses.setdefault(what, st)
                    old = getattr(first, what)
                    if old != new:
                        raise ParseError(
                            f"unsupported construct: {what}s {old} and {new} "
                            f"for property {st.name} in different documents "
                            f"(class intersection); first declared at "
                            f"{first.location}",
                            st.location,
                        )
                if st.transitive:
                    emit(_fact("isTransitive", st.name))
            elif isinstance(st, IndividualDeclaration):
                for cls in st.types:
                    emit(_fact("isIndividual", st.name, cls))
                for prop, val in st.values:
                    if prop == IMPORTS_PROPERTY:
                        emit(_fact("impOntology", st.name, val))
                    else:
                        emit(_fact("isStatement", st.name, prop, val))

    # Every isOProperty fact comes before any isDProperty fact.
    for (is_object, name), clauses in sorted(
        props.items(), key=lambda item: not item[0][0]
    ):
        domain, range_ = (
            getattr(clauses[what], what) if what in clauses else OWL_THING
            for what in ("domain", "range")
        )
        if is_object:
            emit(_fact("isOProperty", name, domain, range_))
        else:
            emit(_fact("isDProperty", name, domain))
    return facts


def parse_query(text: str, filename: str = "<string>") -> Query:
    """Parse `head(Vars) :- atom, ..., atom.` and check safety."""
    ts = _TokenStream(text, filename, 1)
    head = _parse_atom(ts)
    ts.expect(":-")
    body = [_parse_atom(ts)]
    while ts.peek()[0] == ",":
        ts.next()
        body.append(_parse_atom(ts))
    if ts.peek()[0] == ".":
        ts.next()
    ts.expect("end")
    try:
        return Query(head, tuple(body))
    except (UnsafeRuleError, SchemaError) as exc:
        raise ParseError(str(exc), SourceLocation(filename, 1, 1))
