"""Indexed store of ground extensional facts.

Constants are interned to integers. A pattern is answered from a hash
probe built on demand, one per (predicate, bound positions) access
pattern the first time it is used and kept up to date by later
assertions, so every later match is a single dict lookup (demand-driven
indexing; Santos Costa, Sagonas & Lopes, ICLP 2007). The store is
append-only with set semantics.
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
    """Bidirectional mapping between constant text and integer ids."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []

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

    def __len__(self) -> int:
        return len(self._texts)


class OntologyBase:
    """Ground EOB facts; the IOB predicates are defined by the fixed
    built-in rule program (`model.builtin_iob_program`)."""

    def __init__(self):
        self.symbols = SymbolTable()
        self._rows: dict[str, list[tuple[int, ...]]] = {}
        self._row_set: set[tuple[str, tuple[int, ...]]] = set()
        # (pred, bound positions) -> probe (see `probe_index`)
        self.probes: dict[tuple[str, tuple[int, ...]], dict] = {}
        # pred -> (row key, probe) of each keyed probe, for `assert_fact`
        self._keyed: dict[str, list[tuple[Callable, dict]]] = {}
        self._order: list[tuple[str, tuple[int, ...]]] = []

    @classmethod
    def from_facts(cls, facts) -> OntologyBase:
        base = cls()
        for f in facts:
            base.assert_fact(f)
        return base

    def assert_fact(self, fact: Atom) -> OntologyBase:
        """Add a ground EOB fact; duplicates are ignored (set semantics)."""
        schema = schema_for(fact.predicate, len(fact.args))
        if schema.kind is not PredicateKind.EOB:
            raise SchemaError(f"cannot assert intensional fact: {fact}")
        if not fact.is_ground:
            raise NonGroundFactError(f"fact contains variables: {fact}")
        row = tuple(self.symbols.intern(t.value) for t in fact.args)
        key = (fact.predicate, row)
        if key in self._row_set:
            return self
        self._row_set.add(key)
        self._rows.setdefault(fact.predicate, []).append(row)
        self._order.append(key)
        # the free probe holds the row list itself
        for row_key, probe in self._keyed.get(fact.predicate, ()):
            probe.setdefault(row_key(row), []).append(row)
        return self

    def rows(self, predicate: str) -> list[tuple[int, ...]]:
        """All interned rows of a predicate, insertion order. Do not mutate."""
        return self._rows.get(predicate, [])

    def probe_index(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Rows of a predicate keyed by their values at `positions`.

        Each list is in insertion order. The probe is built on the first
        request for the pair and extended by every later `assert_fact`;
        the free pattern `()` maps `()` to the row list itself. Every
        probe built so far is also `probes[predicate, positions]`. Do not
        mutate.
        """
        probe = self.probes.get((predicate, positions))
        if probe is None:
            rows = self._rows.setdefault(predicate, [])
            if positions:
                row_key = _getter(positions)
                probe = {}
                for row in rows:
                    probe.setdefault(row_key(row), []).append(row)
                self._keyed.setdefault(predicate, []).append((row_key, probe))
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
        `DOMAIN_SOURCES`); a distinct domain lists each value once."""
        sources, distinct = DOMAIN_SOURCES[domain]
        ids = [row[pos] for pred, pos in sources for row in self.rows(pred)]
        return list(dict.fromkeys(ids)) if distinct else ids

    def to_atom(self, predicate: str, row: tuple[int, ...]) -> Atom:
        return Atom(
            predicate, tuple(Term.const(self.symbols.text(c)) for c in row)
        )

    def facts(self):
        """All facts as ground atoms, in global assertion order."""
        for pred, row in self._order:
            yield self.to_atom(pred, row)

    def __len__(self) -> int:
        return len(self._order)
