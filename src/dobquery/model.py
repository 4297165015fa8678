"""Datalog data model and the built-in ontology predicate schema.

The vocabulary has two layers: extensional predicates (EOB) hold ground
facts asserted from ontology documents, and intensional predicates (IOB)
are defined by a fixed rule program that encodes subclass, import,
class-membership and property-value inference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class DobError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(DobError):
    """Unknown predicate, wrong arity, or an ill-formed schema object."""


class NonGroundFactError(DobError):
    """A fact containing variables was used where ground atoms are required."""


class UnsafeRuleError(DobError):
    """A rule or query head uses a variable that does not occur in the body."""


def read_text(path) -> str:
    """The contents of a UTF-8 text file.

    A file that is not UTF-8 raises DobError naming it and the offset of
    its first bad byte, counted from 1.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DobError(
            f"{path}: not UTF-8 text (byte {exc.start + 1})"
        ) from None


CONSTANT_RE = re.compile(r"[a-z][A-Za-z0-9_:.]*\Z")
VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """A constant or a variable; `kind` is 'const' or 'var'."""

    kind: str
    value: str

    def __init__(self, kind: str, value: str):
        if kind != "const" and kind != "var":
            raise ValueError(f"bad term kind: {kind!r}")
        if not value:
            raise ValueError("empty term value")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    @classmethod
    def const(cls, value: str) -> Term:
        return cls("const", value)

    @classmethod
    def var(cls, name: str) -> Term:
        return cls("var", name)

    @property
    def is_var(self) -> bool:
        return self.kind == "var"

    def __str__(self) -> str:
        if self.is_var or CONSTANT_RE.match(self.value):
            return self.value
        escaped = self.value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"


@dataclass(frozen=True, slots=True, init=False)
class Atom:
    """A predicate applied to terms."""

    predicate: str
    args: tuple[Term, ...]

    def __init__(self, predicate: str, args):
        # Set through the slot descriptors, past the frozen `__setattr__`;
        # `tuple(args)` of a tuple is that tuple, so it is kept, not copied.
        _set_predicate(self, predicate)
        _set_args(self, tuple(args))

    @property
    def is_ground(self) -> bool:
        return all(not t.is_var for t in self.args)

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order."""
        seen: dict[str, None] = {}
        for t in self.args:
            if t.is_var:
                seen.setdefault(t.value, None)
        return tuple(seen)

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


_set_predicate = Atom.predicate.__set__
_set_args = Atom.args.__set__


@dataclass(frozen=True, slots=True)
class Rule:
    """A safe Horn rule: every head variable occurs in the body."""

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise UnsafeRuleError(f"rule for {self.head} has an empty body")
        bound = {v for a in self.body for v in a.variables}
        for v in self.head.variables:
            if v not in bound:
                raise UnsafeRuleError(
                    f"unsafe rule: head variable {v} of {self.head} not in body"
                )

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


@dataclass(frozen=True, slots=True)
class Query:
    """A conjunctive query over built-in predicates."""

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise UnsafeRuleError(f"query {self.head} has an empty body")
        bound = {v for a in self.body for v in a.variables}
        for v in self.head.variables:
            if v not in bound:
                raise UnsafeRuleError(
                    f"unsafe query: head variable {v} not bound in body"
                )
        for a in self.body:
            schema_for(a.predicate, len(a.args))

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


class PredicateKind(Enum):
    EOB = "EOB"
    IOB = "IOB"


class ArgDomain(Enum):
    """Which URI pool an argument position draws its values from."""

    CLASS = "class"
    ONTOLOGY = "ontology"
    INDIVIDUAL = "individual"
    PROPERTY = "property"
    VALUE = "value"


@dataclass(frozen=True, slots=True)
class PredicateSchema:
    name: str
    arity: int
    kind: PredicateKind
    arg_domains: tuple[ArgDomain, ...]

    def __post_init__(self):
        if len(self.arg_domains) != self.arity:
            raise SchemaError(f"{self.name}: {self.arity} args, "
                              f"{len(self.arg_domains)} domains")


_C = ArgDomain.CLASS
_O = ArgDomain.ONTOLOGY
_I = ArgDomain.INDIVIDUAL
_P = ArgDomain.PROPERTY
_V = ArgDomain.VALUE

BUILTIN_SCHEMA: dict[str, PredicateSchema] = {
    s.name: s
    for s in [
        PredicateSchema("isOntology", 1, PredicateKind.EOB, (_O,)),
        PredicateSchema("impOntology", 2, PredicateKind.EOB, (_O, _O)),
        PredicateSchema("isClass", 2, PredicateKind.EOB, (_C, _O)),
        PredicateSchema("isOProperty", 3, PredicateKind.EOB, (_P, _C, _C)),
        PredicateSchema("isDProperty", 2, PredicateKind.EOB, (_P, _C)),
        PredicateSchema("isTransitive", 1, PredicateKind.EOB, (_P,)),
        PredicateSchema("subClassOf", 2, PredicateKind.EOB, (_C, _C)),
        PredicateSchema("allValuesFrom", 3, PredicateKind.EOB, (_C, _P, _C)),
        PredicateSchema("isIndividual", 2, PredicateKind.EOB, (_I, _C)),
        PredicateSchema("isStatement", 3, PredicateKind.EOB, (_I, _P, _V)),
        PredicateSchema("areSubClasses", 2, PredicateKind.IOB, (_C, _C)),
        PredicateSchema("areImpOntologies", 2, PredicateKind.IOB, (_O, _O)),
        PredicateSchema("areClasses", 2, PredicateKind.IOB, (_C, _O)),
        PredicateSchema("areIndividuals", 2, PredicateKind.IOB, (_I, _C)),
        PredicateSchema("areStatements", 3, PredicateKind.IOB, (_I, _P, _V)),
    ]
}

# ArgDomain -> (sources, distinct): argument `position` of every
# `predicate` fact in `sources` holds a value of the domain. Values are
# listed one per defining fact, in insertion order, so a value declared
# twice is drawn twice; a `distinct` domain lists each value once.
DOMAIN_SOURCES: dict[ArgDomain, tuple[tuple[tuple[str, int], ...], bool]] = {
    _C: ((("isClass", 0),), False),
    _O: ((("isOntology", 0),), False),
    _I: ((("isIndividual", 0),), False),
    _P: ((("isOProperty", 0), ("isDProperty", 0)), False),
    _V: ((("isStatement", 2),), True),
}

EOB_PREDICATES = tuple(
    n for n, s in BUILTIN_SCHEMA.items() if s.kind is PredicateKind.EOB
)
IOB_PREDICATES = tuple(
    n for n, s in BUILTIN_SCHEMA.items() if s.kind is PredicateKind.IOB
)


def schema_for(predicate: str, arity: int | None = None) -> PredicateSchema:
    """Look up a built-in predicate, optionally checking its arity."""
    schema = BUILTIN_SCHEMA.get(predicate)
    if schema is None:
        raise SchemaError(f"unknown predicate: {predicate}")
    if arity is not None and schema.arity != arity:
        raise SchemaError(
            f"{predicate} expects {schema.arity} arguments, got {arity}"
        )
    return schema


def _r(head: str, *body: str) -> Rule:
    def parse(s: str) -> Atom:
        name, rest = s.split("(", 1)
        args = rest.rstrip(")").split(",")
        return Atom(name, tuple(Term.var(a) for a in args))

    return Rule(parse(head), tuple(parse(b) for b in body))


_IOB_PROGRAM: tuple[Rule, ...] = (
    _r("areSubClasses(C1,C2)", "subClassOf(C1,C2)"),
    _r("areSubClasses(C1,C2)", "subClassOf(C1,C3)", "areSubClasses(C3,C2)"),
    _r("areImpOntologies(O1,O2)", "impOntology(O1,O2)"),
    _r("areImpOntologies(O1,O2)", "impOntology(O1,O3)", "areImpOntologies(O3,O2)"),
    _r("areClasses(C,O)", "isClass(C,O)"),
    _r("areClasses(C,O1)", "isClass(C,O2)", "areImpOntologies(O1,O2)"),
    _r("areIndividuals(I,C)", "isIndividual(I,C)"),
    _r("areIndividuals(I,C2)", "isIndividual(I,C1)", "areSubClasses(C1,C2)"),
    _r("areIndividuals(I,C)", "isOProperty(P,C,R)", "areStatements(I,P,J)"),
    _r("areIndividuals(J,C)", "isOProperty(P,D,C)", "areStatements(I,P,J)"),
    _r("areIndividuals(I,C)", "isDProperty(P,C)", "areStatements(I,P,J)"),
    _r(
        "areIndividuals(J,C)",
        "isIndividual(I,C1)",
        "allValuesFrom(C1,P,C)",
        "areStatements(I,P,J)",
    ),
    _r("areStatements(I,P,J)", "isStatement(I,P,J)"),
    _r(
        "areStatements(I,P,J)",
        "isTransitive(P)",
        "isStatement(I,P,K)",
        "areStatements(K,P,J)",
    ),
)


def builtin_iob_program() -> list[Rule]:
    """The fixed intensional rule set defining the IOB predicates.

    Heads use IOB predicates only; bodies mix EOB and IOB predicates.
    Recursion occurs through areSubClasses, areImpOntologies and
    areStatements (via transitive properties).
    """
    return list(_IOB_PROGRAM)
