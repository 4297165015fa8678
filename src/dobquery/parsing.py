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
from dataclasses import dataclass
from functools import cache

from .model import (
    CONSTANT_RE,
    Atom,
    DobError,
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


def _tokenize(text: str, filename: str, line_no: int):
    """Yield (kind, value, SourceLocation) triples for one line of input."""
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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
    def __init__(self, text: str, filename: str, line_no: int):
        self.tokens = list(_tokenize(text, filename, line_no))
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
    """Parse the fact format: one ground built-in fact per line.

    A plain line is read by one regex. Any other line (quoted constants,
    inner spaces, variables, malformed input) goes through the tokenizer,
    which reads a plain line to the same atom and reports every error.
    """
    facts = []
    const = cache(Term.const)  # one Term per distinct constant text
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
        try:
            schema_for(atom.predicate, len(atom.args))
        except SchemaError as exc:
            raise ParseError(str(exc), SourceLocation(filename, line_no, 1))
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
class ObjectPropertyDeclaration:
    name: str
    domain: str | None = None
    range: str | None = None


@dataclass(frozen=True, slots=True)
class DatatypePropertyDeclaration:
    name: str
    domain: str | None = None


@dataclass(frozen=True, slots=True)
class TransitivePropertyDeclaration:
    name: str


@dataclass(frozen=True, slots=True)
class IndividualDeclaration:
    name: str
    types: tuple[str, ...] = ()
    values: tuple[tuple[str, str], ...] = ()  # (property, value)


OwlStatement = (
    ClassDeclaration
    | ObjectPropertyDeclaration
    | DatatypePropertyDeclaration
    | TransitivePropertyDeclaration
    | IndividualDeclaration
)


@dataclass(slots=True)
class OwlDocument:
    ontology_uri: str
    imports: tuple[str, ...] = ()
    statements: tuple[OwlStatement, ...] = ()


_OWL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:.\-]*")

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


def _owl_tokens(line: str, filename: str, line_no: int):
    pos = 0
    while pos < len(line):
        c = line[pos]
        if c.isspace():
            pos += 1
            continue
        loc = SourceLocation(filename, line_no, pos + 1)
        if c in "()":
            yield c, c, loc
            pos += 1
            continue
        m = _OWL_NAME_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {c!r}", loc)
        yield "name", m.group(), loc
        pos = m.end()
    yield "end", "", SourceLocation(filename, line_no, len(line) + 1)


class _OwlStream(_TokenStream):
    def __init__(self, line: str, filename: str, line_no: int):
        self.tokens = list(_owl_tokens(line, filename, line_no))
        self.i = 0


def _parse_class_line(ts: _OwlStream, loc: SourceLocation) -> ClassDeclaration:
    ts.expect("(")
    _, name, _ = ts.expect("name")
    kind, kw, kw_loc = ts.next()
    if kind == ")":  # bare declaration, no parents
        return ClassDeclaration(name)
    if kw.lower() != "partial":
        if kw.lower() in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {kw}", kw_loc)
        raise ParseError(f"expected 'partial', found {kw!r}", kw_loc)
    supers: list[str] = []
    restrictions: list[tuple[str, str]] = []
    while True:
        kind, value, loc2 = ts.next()
        if kind == ")":
            break
        if kind != "name":
            raise ParseError(f"expected a class expression, found {value!r}", loc2)
        if value.lower() == "restriction":
            ts.expect("(")
            _, prop, _ = ts.expect("name")
            kind3, kw3, loc3 = ts.next()
            if kind3 != "name" or kw3.lower() != "allvaluesfrom":
                if kind3 == "name" and kw3.lower() in _UNSUPPORTED:
                    raise ParseError(f"unsupported construct: {kw3}", loc3)
                raise ParseError(
                    f"expected 'allValuesFrom', found {kw3!r}", loc3
                )
            ts.expect("(")
            _, filler, _ = ts.expect("name")
            ts.expect(")")
            ts.expect(")")
            restrictions.append((prop, filler))
        elif value.lower() in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {value}", loc2)
        elif value in THING_NAMES:
            pass  # every declared class is already a class of the ontology
        else:
            supers.append(value)
    return ClassDeclaration(name, tuple(supers), tuple(restrictions))


def _parse_property_clause(ts: _OwlStream):
    """Parse the optional clause of a property line: domain(x) | range(x) |
    Transitive."""
    kind, kw, loc = ts.next()
    if kind == ")":
        return None
    if kind != "name":
        raise ParseError(f"expected a property clause, found {kw!r}", loc)
    low = kw.lower()
    if low == "transitive":
        return ("transitive", None, loc)
    if low not in ("domain", "range"):
        if low in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {kw}", loc)
        raise ParseError(f"expected domain/range/Transitive, found {kw!r}", loc)
    ts.expect("(")
    _, value, _ = ts.expect("name")
    ts.expect(")")
    return (low, value, loc)


def _parse_individual_line(
    ts: _OwlStream, loc: SourceLocation
) -> IndividualDeclaration:
    ts.expect("(")
    _, name, _ = ts.expect("name")
    types: list[str] = []
    values: list[tuple[str, str]] = []
    while True:
        kind, kw, loc2 = ts.next()
        if kind == ")":
            break
        if kind != "name":
            raise ParseError(f"expected type/value clause, found {kw!r}", loc2)
        low = kw.lower()
        if low == "type":
            ts.expect("(")
            _, cls, _ = ts.expect("name")
            ts.expect(")")
            types.append(cls)
        elif low == "value":
            ts.expect("(")
            _, prop, _ = ts.expect("name")
            _, val, _ = ts.expect("name")
            ts.expect(")")
            values.append((prop, val))
        elif low in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {kw}", loc2)
        else:
            raise ParseError(f"expected type/value clause, found {kw!r}", loc2)
    return IndividualDeclaration(name, tuple(types), tuple(values))


def parse_owl(text: str, filename: str = "<string>") -> OwlDocument:
    """Parse one ontology document in the functional abstract syntax."""
    ontology_uri: str | None = None
    imports: list[str] = []
    statements: list[OwlStatement] = []
    obj_props: dict[str, set[str]] = {}
    dat_props: dict[str, bool] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip() if "%" in raw else raw.strip()
        if not line:
            continue
        ts = _OwlStream(line, filename, line_no)
        kind, head, loc = ts.next()
        if kind != "name":
            raise ParseError(f"expected a construct, found {head!r}", loc)
        low = head.lower()
        if low == "ontology":
            ts.expect("(")
            _, uri, _ = ts.expect("name")
            ts.expect(")")
            if ontology_uri is not None:
                raise ParseError("multiple Ontology headers in one document", loc)
            ontology_uri = uri
        elif low == "imports":
            _, uri, _ = ts.expect("name")
            imports.append(uri)
        elif low == "class":
            statements.append(_parse_class_line(ts, loc))
        elif low == "objectproperty":
            ts.expect("(")
            _, name, _ = ts.expect("name")
            clause = _parse_property_clause(ts)
            if clause is None:
                statements.append(ObjectPropertyDeclaration(name))
                continue
            ts.expect(")")
            what, value, cloc = clause
            if what == "transitive":
                statements.append(TransitivePropertyDeclaration(name))
                continue
            seen_clauses = obj_props.setdefault(name, set())
            if what in seen_clauses:
                raise ParseError(
                    f"unsupported construct: multiple {what}s for property "
                    f"{name} (class intersection)",
                    cloc,
                )
            seen_clauses.add(what)
            if what == "domain":
                statements.append(ObjectPropertyDeclaration(name, domain=value))
            else:
                statements.append(ObjectPropertyDeclaration(name, range=value))
        elif low in ("datatypeproperty", "dataproperty"):
            ts.expect("(")
            _, name, _ = ts.expect("name")
            clause = _parse_property_clause(ts)
            if clause is None:
                statements.append(DatatypePropertyDeclaration(name))
                continue
            ts.expect(")")
            what, value, cloc = clause
            if what == "transitive":
                statements.append(TransitivePropertyDeclaration(name))
                continue
            if what == "range":
                raise ParseError(
                    "datatype properties carry no range in this subset", cloc
                )
            if name in dat_props:
                raise ParseError(
                    f"unsupported construct: multiple domains for property "
                    f"{name} (class intersection)",
                    cloc,
                )
            dat_props[name] = True
            statements.append(DatatypePropertyDeclaration(name, domain=value))
        elif low == "property":
            ts.expect("(")
            _, name, _ = ts.expect("name")
            kind2, kw2, loc2 = ts.expect("name")
            if kw2.lower() != "transitive":
                raise ParseError(f"expected 'Transitive', found {kw2!r}", loc2)
            ts.expect(")")
            statements.append(TransitivePropertyDeclaration(name))
        elif low == "individual":
            statements.append(_parse_individual_line(ts, loc))
        elif low in _UNSUPPORTED:
            raise ParseError(f"unsupported construct: {head}", loc)
        else:
            raise ParseError(f"unknown construct: {head}", loc)

    if ontology_uri is None:
        raise ParseError(
            "missing Ontology(<uri>) header", SourceLocation(filename, 1, 1)
        )
    return OwlDocument(ontology_uri, tuple(imports), tuple(statements))


def _fact(pred: str, *consts: str) -> Atom:
    return Atom(pred, tuple(Term.const(c) for c in consts))


def translate_documents(docs) -> list[Atom]:
    """Translate parsed documents into EOB facts.

    Property domain/range declarations are merged across the whole batch;
    missing domains/ranges default to owl:Thing. `Class(A partial C)` yields
    both the class membership fact and the subClassOf edge, so that a
    class declared via a superclass still counts as a class of its ontology.
    """
    facts: list[Atom] = []
    seen: set[Atom] = set()

    def emit(atom: Atom):
        if atom not in seen:
            seen.add(atom)
            facts.append(atom)

    obj_props: dict[str, ObjectPropertyDeclaration] = {}
    dat_props: dict[str, DatatypePropertyDeclaration] = {}

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
            elif isinstance(st, ObjectPropertyDeclaration):
                prev = obj_props.get(st.name)
                if prev is not None:
                    st = ObjectPropertyDeclaration(
                        st.name, prev.domain or st.domain, prev.range or st.range
                    )
                obj_props[st.name] = st
            elif isinstance(st, DatatypePropertyDeclaration):
                prev = dat_props.get(st.name)
                if prev is not None and prev.domain is not None:
                    st = prev
                dat_props[st.name] = st
            elif isinstance(st, TransitivePropertyDeclaration):
                emit(_fact("isTransitive", st.name))
            elif isinstance(st, IndividualDeclaration):
                for cls in st.types:
                    emit(_fact("isIndividual", st.name, cls))
                for prop, val in st.values:
                    if prop == IMPORTS_PROPERTY:
                        emit(_fact("impOntology", st.name, val))
                    else:
                        emit(_fact("isStatement", st.name, prop, val))

    for decl in obj_props.values():
        emit(
            _fact(
                "isOProperty",
                decl.name,
                decl.domain or OWL_THING,
                decl.range or OWL_THING,
            )
        )
    for decl in dat_props.values():
        emit(_fact("isDProperty", decl.name, decl.domain or OWL_THING))
    return facts


def translate_owl(doc: OwlDocument) -> list[Atom]:
    return translate_documents([doc])


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
