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


class SymbolTable:
    """Bidirectional mapping between constant text and integer ids.

    Also the base's constant pool: `terms` and `printed` list each id's
    `Term` and printed text, `str(Term)`. Each list is extended to the
    table's size when read and never rebuilt, since ids are only
    appended, so each constant is decoded once per base.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []
        self._terms: list[Term] = []
        self._printed: list[str] = []

    def intern(self, text: str) -> int:
        cid = self._ids.get(text)
        if cid is None:
            cid = len(self._texts)
            self._ids[text] = cid
            self._texts.append(text)
        return cid

    def lookup(self, text: str) -> int | None:
        return self._ids.get(text)

    def text(self, cid: int) -> str:
        return self._texts[cid]

    def terms(self) -> list[Term]:
        """The `Term` of each id, indexed by id. Do not mutate."""
        terms = self._terms
        if len(terms) < len(self._texts):
            terms.extend(map(Term.const, self._texts[len(terms):]))
        return terms

    def printed(self) -> list[str]:
        """The printed text of each id, `str(Term)`, indexed by id; ids
        sort as their answers' text does. Do not mutate."""
        printed = self._printed
        if len(printed) < len(self._texts):
            printed.extend(map(str, self.terms()[len(printed):]))
        return printed

    def __len__(self) -> int:
        return len(self._texts)


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
            texts = [t.value for t in args if t.kind == "const"]
            if len(texts) != len(args):
                raise NonGroundFactError(f"fact contains variables: {fact}")
            row = tuple([ids[t] if t in ids else intern(t) for t in texts])
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
        """All facts as ground atoms, in global assertion order, built
        from the symbol table's pooled `Term`s (never its printed texts)."""
        term = self.symbols.terms().__getitem__
        for pred, row in self._facts:
            yield Atom(pred, tuple(map(term, row)))

    def __len__(self) -> int:
        return len(self._facts)
