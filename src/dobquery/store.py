"""Indexed store of ground extensional facts.

Constants are interned to integers; every argument position of every
predicate carries a posting-list index so that any partially bound
pattern can be answered without a full scan. The store is append-only
with set semantics and is meant to be fully loaded before querying.
"""

from __future__ import annotations

from .model import (
    ArgDomain,
    Atom,
    DOMAIN_SOURCES,
    NonGroundFactError,
    PredicateKind,
    Rule,
    SchemaError,
    Term,
    builtin_iob_program,
    schema_for,
)


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
    """Ground EOB facts plus the fixed IOB rule program."""

    def __init__(self, iob_program: list[Rule] | None = None):
        self.symbols = SymbolTable()
        self.iob_program: list[Rule] = (
            list(iob_program) if iob_program is not None else builtin_iob_program()
        )
        self._rows: dict[str, list[tuple[int, ...]]] = {}
        self._row_set: set[tuple[str, tuple[int, ...]]] = set()
        # (pred, position, constant id) -> row indices, insertion order
        self._index: dict[tuple[str, int, int], list[int]] = {}
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
        rows = self._rows.setdefault(fact.predicate, [])
        pos = len(rows)
        rows.append(row)
        self._order.append(key)
        for i, cid in enumerate(row):
            self._index.setdefault((fact.predicate, i, cid), []).append(pos)
        return self

    def rows(self, predicate: str) -> list[tuple[int, ...]]:
        """All interned rows of a predicate, insertion order. Do not mutate."""
        return self._rows.get(predicate, [])

    def match_rows(
        self, predicate: str, pattern, same=()
    ) -> list[tuple[int, ...]]:
        """Rows matching a tuple of constant ids (None = free position)
        whose positions agree for every (i, j) pair in `same`."""
        rows = self._rows.get(predicate)
        if not rows:
            return []
        bound = [(i, c) for i, c in enumerate(pattern) if c is not None]
        if bound:
            postings = None
            for i, c in bound:
                p = self._index.get((predicate, i, c))
                if not p:
                    return []
                if postings is None or len(p) < len(postings):
                    postings = p
            out = []
            for pos in postings:
                row = rows[pos]
                if all(row[i] == c for i, c in bound):
                    out.append(row)
            rows = out
        if same:
            rows = [
                row for row in rows if all(row[i] == row[j] for i, j in same)
            ]
        return rows

    def match_eob(self, pattern: Atom) -> list[Atom]:
        """All facts unifying with `pattern`, in insertion order."""
        schema = schema_for(pattern.predicate, len(pattern.args))
        if schema.kind is not PredicateKind.EOB:
            raise SchemaError(f"match_eob requires an EOB predicate: {pattern}")
        ids: list[int | None] = []
        same: list[tuple[int, int]] = []
        first: dict[str, int] = {}  # variable -> its first position
        for pos, t in enumerate(pattern.args):
            if t.is_var:
                ids.append(None)
                if t.value in first:
                    same.append((first[t.value], pos))
                else:
                    first[t.value] = pos
            else:
                cid = self.symbols.lookup(t.value)
                if cid is None:
                    return []
                ids.append(cid)
        rows = self.match_rows(pattern.predicate, tuple(ids), same)
        return [self.to_atom(pattern.predicate, row) for row in rows]

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


def assert_fact(base: OntologyBase, fact: Atom) -> OntologyBase:
    return base.assert_fact(fact)


def match_eob(base: OntologyBase, pattern: Atom) -> list[Atom]:
    return base.match_eob(pattern)
