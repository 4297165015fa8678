"""Per-shape census of two recordings of `engine_counter_pins.json`.

For each IOB predicate and call shape of the pins' `solve` rows, it
prints the total inferred facts and EOB accesses over the 300 seeds in
the parent's recording and in the change's, and in how many seeds each
counter rose (+) and fell (-). Shapes are written as the kernels name
them: `b` for a constant, `?n` for a free argument. Three more lines
give the same totals and counts for the 1,200 pinned queries, one line
per column: `solve_sequence`, nested loop and hash join. Any shape or
column whose answer count moved in some row is named, with the number of
such rows, and the script exits 1, since a change to the counters must
not move one.

Run this file as a script: `python tests/shape_census.py PARENT.json
[CHANGE.json]`; CHANGE.json defaults to this tree's pins.
"""

import json
import sys
from pathlib import Path

from conftest import binding_patterns

from dobquery.model import BUILTIN_SCHEMA, IOB_PREDICATES

PINS = Path(__file__).parent / "data" / "engine_counter_pins.json"


def call_shapes() -> list[str]:
    """The call of each `solve` row of a seed, in the pins' row order."""
    return [
        f"{pred}(" + ",".join(
            "b" if v is None else f"?{v}" for v in pattern
        ) + ")"
        for pred in IOB_PREDICATES
        for pattern in binding_patterns(BUILTIN_SCHEMA[pred].arity)
    ]


QUERY_COLUMNS = ("solve_sequence", "nested loop", "hash join")


def _moves(pairs: list[tuple]) -> list:
    """[rows whose answer count moved, and for inferred facts and then
    EOB accesses: parent total, change total, rows up, rows down] over
    (parent, change) pairs of [answers, inferred facts, EOB accesses]."""
    out = [sum(old[0] != new[0] for old, new in pairs)]
    for k in (1, 2):
        out += [
            sum(old[k] for old, _ in pairs),
            sum(new[k] for _, new in pairs),
            sum(new[k] > old[k] for old, new in pairs),
            sum(new[k] < old[k] for old, new in pairs),
        ]
    return out


def census(parent: dict, change: dict) -> list[list]:
    """Per call shape: [shape, *`_moves` over its `solve` rows]."""
    return [
        [shape, *_moves([
            (rows[i], change["solve"][seed][i])
            for seed, rows in parent["solve"].items()
        ])]
        for i, shape in enumerate(call_shapes())
    ]


def query_census(parent: dict, change: dict) -> list[list]:
    """Per query column: [column, *`_moves` over the pinned queries]."""
    return [
        [column, *_moves([
            (row[i], new_row[i])
            for seed, rows in parent["queries"].items()
            for row, new_row in zip(rows, change["queries"][seed])
        ])]
        for i, column in enumerate(QUERY_COLUMNS)
    ]


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python tests/shape_census.py PARENT.json"
              " [CHANGE.json]", file=sys.stderr)
        return 2
    parent, change = (
        json.loads(Path(p).read_text()) for p in (*argv, PINS)[:2]
    )
    moved_answers = []
    for title, rows in (
        ("call shape", census(parent, change)),
        ("query column", query_census(parent, change)),
    ):
        print(f"{title:<28} {'inferred facts':>17} {'+':>4} {'-':>4}"
              f" {'EOB accesses':>17} {'+':>4} {'-':>4}")
        for name, answers, *counts in rows:
            if answers:
                moved_answers.append(f"{name} in {answers} rows")
            cells = [
                f"{old:>7,} -> {new:>7,} {up:>4} {down:>4}"
                for old, new, up, down in (counts[:4], counts[4:])
            ]
            print(f"{name:<28} {cells[0]} {cells[1]}")
    if moved_answers:
        print("answer counts moved: " + "; ".join(moved_answers))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
