"""The tables one evaluation creates, pinned.

For every IOB predicate under every binding pattern, repeated variables
included, `solve` runs on a fresh memo. A base's `counts` hold
`len(memo.tables)` after each call: the tables of every call pattern the
evaluation reached, completed or not. Its `sha256` digests the
`repr` of `[(call, list(rows)) for call, rows in memo.tables.items()]`
after each call, so it pins the order tables were created in and the
order of the rows in each. The bases are `cars.dob` and `random_base`
seeds 0-19; constants are drawn, as in `test_counter_pins.py`, from the
base's values of each argument domain.

Run this file as a script to record fresh pins.
"""

import hashlib
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


def table_pins(base, rng: random.Random) -> dict:
    text = base.symbols.text
    counts = []
    tables = []
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
            counts.append(len(memo.tables))
            tables.append(
                [(call, list(rows)) for call, rows in memo.tables.items()]
            )
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    return {"counts": counts, "sha256": digest}


def all_pins() -> dict[str, dict]:
    pins = {"cars": table_pins(load_cars_base(), random.Random(0))}
    for seed in SEEDS:
        rng = random.Random(seed)
        pins[str(seed)] = table_pins(random_base(rng), rng)
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def recorded():
    return all_pins()


def test_tables_created_match_pins(pins, recorded):
    assert recorded.keys() == pins.keys()
    for name, row in recorded.items():
        assert row["counts"] == pins[name]["counts"], name


def test_table_order_and_rows_match_pins(pins, recorded):
    for name, row in recorded.items():
        assert row["sha256"] == pins[name]["sha256"], name


if __name__ == "__main__":
    lines = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(row)}"
        for name, row in all_pins().items()
    )
    sys.stdout.write("{\n" + lines + "\n}\n")
