"""Indexed store of ground extensional facts.

Constants are interned to integers. A pattern is answered from a hash
probe built on demand, one per (predicate, bound positions) access
pattern the first time it is used, so every later match is a single
dict lookup (demand-driven indexing; Santos Costa, Sagonas & Lopes,
ICLP 2007). One loading loop adds facts; a load that adds one drops the
probes, each rebuilt when next asked for. Append-only, set semantics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .model import (
    ArgDomain,
    Atom,
    DOMAIN_SOURCES,
    NonGroundFactError,
    PredicateKind,
    SchemaError,
    Term,
    schema_for,
)


def _getter(indices) -> Callable[[tuple], tuple]:
    """Function returning the items of a tuple at `indices`, as a tuple."""
    if len(indices) == 1:
        (i,) = indices
        return itemgetter(slice(i, i + 1))
    return itemgetter(*indices) if indices else itemgetter(slice(0))


def _same_rows(rows, same) -> list[tuple[int, ...]]:
    """The rows whose positions agree for every (i, j) pair in `same`."""
    return [row for row in rows if all(row[i] == row[j] for i, j in same)]


class _PrintedTexts(dict):
    """Printed text of each id read so far, `str(Term)`, keyed by id;
    an id's text is made the first time it is read."""

    def __init__(self, terms: list[Term]):
        self.terms = terms

    def __missing__(self, cid: int) -> str:
        text = self[cid] = str(self.terms[cid])
        return text


class SymbolTable:
    """Bidirectional mapping between constants and integer ids.

    Also the base's constant pool: `terms` lists, by id, the `Term` the
    loader interned, and `printed` maps an id to its printed text,
    `str(Term)`, made when an answer first reads it. Ids are only
    appended, so each constant has one `Term` and at most one printed
    text per base. Do not mutate either.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.terms: list[Term] = []
        self.printed = _PrintedTexts(self.terms)

    def intern(self, term: Term) -> int:
        """Id of constant `term`; a new constant's id holds `term` itself."""
        cid = self._ids.get(term.value)
        if cid is None:
            cid = self._ids[term.value] = len(self.terms)
            self.terms.append(term)
        return cid

    def lookup(self, text: str) -> int | None:
        return self._ids.get(text)

    def text(self, cid: int) -> str:
        return self.terms[cid].value

    def __len__(self) -> int:
        return len(self.terms)


class OntologyBase:
    """Ground EOB facts; the IOB predicates are defined by the fixed
    built-in rule program (`model.builtin_iob_program`)."""

    def __init__(self):
        self.symbols = SymbolTable()
        self._rows: dict[str, list[tuple[int, ...]]] = {}
        # (pred, row) of every fact, in assertion order (values unused)
        self._facts: dict[tuple[str, tuple[int, ...]], None] = {}
        # (pred, bound positions) -> probe (see `probe_index`)
        self.probes: dict[tuple[str, tuple[int, ...]], dict] = {}
        self._pools: dict[ArgDomain, list[int]] = {}  # see `domain_values`

    @classmethod
    def from_facts(cls, facts) -> OntologyBase:
        """A base of `facts`, read by the one loading loop, `_load`."""
        return cls()._load(facts)

    def assert_fact(self, fact: Atom) -> OntologyBase:
        """Add a ground EOB fact; duplicates are ignored (set semantics)."""
        return self._load((fact,))

    def _load(self, facts) -> OntologyBase:
        """The one loading loop: each (predicate, arity) is checked once,
        and all of a fact's arguments before any is interned. A refused
        fact adds nothing, and `from_facts` then returns no base."""
        ids, intern = self.symbols._ids, self.symbols.intern
        size = len(self._facts)
        checked: set[tuple[str, int]] = set()
        for fact in facts:
            pred, args = fact.predicate, fact.args
            if (pred, len(args)) not in checked:
                if schema_for(pred, len(args)).kind is not PredicateKind.EOB:
                    raise SchemaError(f"cannot assert intensional fact: {fact}")
                checked.add((pred, len(args)))
            if any(t.kind != "const" for t in args):
                raise NonGroundFactError(f"fact contains variables: {fact}")
            row = tuple([
                ids[t.value] if t.value in ids else intern(t) for t in args
            ])
            if (pred, row) not in self._facts:
                self._facts[pred, row] = None
                self._rows.setdefault(pred, []).append(row)
        if len(self._facts) != size:
            self.probes.clear()
            self._pools.clear()
        return self

    def rows(self, predicate: str) -> list[tuple[int, ...]]:
        """All interned rows of a predicate, insertion order. Do not mutate."""
        return self._rows.get(predicate, [])

    def probe_index(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Rows of a predicate keyed by their values at `positions`.

        Each list is in insertion order. The probe is built on the first
        request for the pair after the last `assert_fact`, which drops
        every probe; the free pattern `()` maps `()` to the row list
        itself. Every probe built since is also
        `probes[predicate, positions]`. Do not mutate.
        """
        probe = self.probes.get((predicate, positions))
        if probe is None:
            rows = self._rows.setdefault(predicate, [])
            if positions:
                row_key = _getter(positions)
                probe = {}
                for row in rows:
                    probe.setdefault(row_key(row), []).append(row)
            else:
                probe = {(): rows}
            self.probes[predicate, positions] = probe
        return probe

    def match_rows(
        self, predicate: str, pattern, same=()
    ) -> list[tuple[int, ...]]:
        """Rows matching a tuple of constant ids (None = free position)
        whose positions agree for every (i, j) pair in `same`. Do not
        mutate."""
        positions = tuple(i for i, c in enumerate(pattern) if c is not None)
        key = tuple(c for c in pattern if c is not None)
        rows = self.probe_index(predicate, positions).get(key, [])
        return _same_rows(rows, same) if same else rows

    def domain_values(self, domain: ArgDomain) -> list[int]:
        """Constant ids of a domain, one per defining fact (see
        `DOMAIN_SOURCES`); a distinct domain lists each value once. The
        list is kept until the next fact is added. Do not mutate."""
        if domain not in self._pools:
            sources, distinct = DOMAIN_SOURCES[domain]
            ids = [row[pos] for pred, pos in sources for row in self.rows(pred)]
            self._pools[domain] = list(dict.fromkeys(ids)) if distinct else ids
        return self._pools[domain]

    def facts(self):
        """All facts as ground atoms, in global assertion order, holding
        the `Term`s the loader interned."""
        term = self.symbols.terms.__getitem__
        for pred, row in self._facts:
            yield Atom(pred, tuple(map(term, row)))

    def __len__(self) -> int:
        return len(self._facts)
