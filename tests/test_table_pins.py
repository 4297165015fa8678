"""The number of tables one evaluation creates, pinned.

For every IOB predicate under every binding pattern, repeated variables
included, `solve` runs on a fresh memo and the row holds
`len(memo.tables)` after it: the tables of every call pattern the
evaluation reached, completed or not. The bases are `cars.dob` and
`random_base` seeds 0-19; constants are drawn, as in
`test_counter_pins.py`, from the base's values of each argument domain.

Run this file as a script to record fresh pins.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from conftest import binding_patterns, load_cars_base, random_base

from dobquery import Atom, MemoTable, Term, solve
from dobquery.model import BUILTIN_SCHEMA, IOB_PREDICATES

PINS = Path(__file__).parent / "data" / "table_count_pins.json"

SEEDS = range(20)


def table_counts(base, rng: random.Random) -> list[int]:
    text = base.symbols.text
    out = []
    for pred in IOB_PREDICATES:
        domains = BUILTIN_SCHEMA[pred].arg_domains
        for pattern in binding_patterns(len(domains)):
            args = []
            for domain, v in zip(domains, pattern):
                if v is None:
                    pool = base.domain_values(domain)
                    args.append(Term.const(
                        text(rng.choice(pool)) if pool else "zz"
                    ))
                else:
                    args.append(Term.var(f"V{v}"))
            memo = MemoTable()
            solve(base, Atom(pred, tuple(args)), memo)
            out.append(len(memo.tables))
    return out


def all_counts() -> dict[str, list[int]]:
    counts = {"cars": table_counts(load_cars_base(), random.Random(0))}
    for seed in SEEDS:
        rng = random.Random(seed)
        counts[str(seed)] = table_counts(random_base(rng), rng)
    return counts


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_tables_created_match_pins(pins):
    counts = all_counts()
    assert counts.keys() == pins.keys()
    for name, row in counts.items():
        assert row == pins[name], name


if __name__ == "__main__":
    lines = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(row)}"
        for name, row in all_counts().items()
    )
    sys.stdout.write("{\n" + lines + "\n}\n")
