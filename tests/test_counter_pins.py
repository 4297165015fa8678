"""The engine's work counters pinned on random cyclic bases.

The pins were recorded with the interpreted rule path that the rule
kernels replaced, and they are its reference: each row is an answer
count, the inferred facts and the EOB accesses of one evaluation. Three
nested-loop rows (query 0 of seeds 9094, 9280 and 9306) were recorded
again when the nested loop stopped sorting its batch by id: they now
equal their `solve_sequence` rows, as every nested-loop row does.

  * `solve`: every IOB predicate under every binding pattern, repeated
    variables included, on a fresh memo, on `random_base` seeds 0-299.
    Constants are drawn from the base's values of each argument domain.
  * queries: three `random_query` bodies per `random_base(rng, 120)` on
    seeds 9000-9399, under `solve_sequence` and under `execute` with
    nested loop and hash join. A block-nested-loop column (blocks of 2)
    was taken out of every row when that strategy was dropped; the
    remaining columns are unchanged.

Run this file as a script to record fresh pins.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from conftest import binding_patterns, random_base, random_query

from dobquery import (
    Atom,
    JoinMethod,
    JoinStrategy,
    Term,
    execute,
    solve,
    solve_sequence,
    uniform_plan,
)
from dobquery.model import BUILTIN_SCHEMA, IOB_PREDICATES

PINS = Path(__file__).parent / "data" / "engine_counter_pins.json"

SOLVE_SEEDS = range(300)
QUERY_SEEDS = range(9000, 9400)
STRATEGIES = (
    JoinStrategy(JoinMethod.NESTED_LOOP),
    JoinStrategy(JoinMethod.HASH_JOIN),
)


def _counts(result, answers) -> list[int]:
    return [answers, result.inferred_fact_count, result.eob_access_count]


def solve_counts(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    base = random_base(rng)
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
            result = solve(base, Atom(pred, tuple(args)))
            out.append(_counts(result, len(result.answers)))
    return out


def query_counts(seed: int) -> list[list[list[int]]]:
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    out = []
    for _ in range(3):
        query = random_query(rng, base)
        substs, counters = solve_sequence(base, query.body)
        rows = [[
            len(substs), counters.inferred_facts, counters.eob_accesses
        ]]
        for strategy in STRATEGIES:
            result = execute(base, uniform_plan(query, strategy))
            rows.append(_counts(result, len(result.answers)))
        out.append(rows)
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("chunk", range(0, len(SOLVE_SEEDS), 50))
def test_solve_counters_match_pins(pins, chunk):
    for seed in SOLVE_SEEDS[chunk : chunk + 50]:
        assert solve_counts(seed) == pins["solve"][str(seed)], seed


@pytest.mark.parametrize("chunk", range(0, len(QUERY_SEEDS), 100))
def test_query_counters_match_pins(pins, chunk):
    for seed in QUERY_SEEDS[chunk : chunk + 100]:
        assert query_counts(seed) == pins["queries"][str(seed)], seed


def _section(name: str, seeds, count) -> str:
    lines = ",\n".join(f"  {json.dumps(str(s))}: {json.dumps(count(s))}"
                       for s in seeds)
    return f' "{name}": {{\n{lines}\n }}'


if __name__ == "__main__":
    sys.stdout.write("{\n" + ",\n".join([
        _section("queries", QUERY_SEEDS, query_counts),
        _section("solve", SOLVE_SEEDS, solve_counts),
    ]) + "\n}\n")
