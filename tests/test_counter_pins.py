"""The engine's work counters pinned on random cyclic bases.

Each row is an answer count, the inferred facts and the EOB accesses of
one evaluation. The answer counts were recorded with the interpreted
rule path that the rule kernels replaced. The counters were recorded
again when closure calls bound in all but their last argument began to
run their recursive rule left-linearly, over their own table: 1,922 of
the 10,500 `solve` rows and 387 of the 1,200 query rows moved, and no
answer count did. Nearly every moved row fell; a few read more EOB rows
(9 `solve` rows, 11 query columns), where one evaluation makes such a
call at several nodes of one chain and each call walks its own closure
instead of reading the tables of the nodes below it. They were recorded
a third time when the closures bound in all but their first argument
began to run the mirror order over their own table and two
`areIndividuals` shapes began to make their tabled call first: 1,917
`solve` rows and 251 query rows moved, and no answer count did. Of the
167 `solve` rows that rose, 156 are `areIndividuals(b,?0)`, whose one
`areStatements(?0,?1,b)` call tables every statement into its constant
where the written order reached only the pairs `allValuesFrom` names,
and 11 are `areIndividuals(?0,b)`, whose one call tables every subclass,
with or without individuals. They were recorded a fourth time when
every closure call with a lone free end (its last argument, or else its
first, a variable it holds once) began to run over its own table,
whatever its other arguments: 2,151 `solve` rows and 439 query rows
moved, and no answer count did. Of the 12 `solve` rows whose cost rose,
3 are `areStatements(?0,?1,?2)`, which now reads `isTransitive` once
per answer, and 9 are `areIndividuals` calls whose
`areStatements(?0,b,?1)` call no longer leaves behind the
`areStatements(b,b,?0)` tables that another of their rules then reads.
They were recorded a fifth time when `areIndividuals(b,?0)` began to run
its three property rules with the tabled call first, and
`areIndividuals(b,b)` its `allValuesFrom` rule with its EOB atoms
bound-first: 578 `solve` rows and 66 query rows moved, all of them
calls of those two shapes, and no answer count did. Of the 85 `solve`
rows whose cost rose, 78 are `areIndividuals(b,?0)` on tiny bases: it
reads a property's `isOProperty` or `isDProperty` rows once per row of
its `areStatements` calls, where the written order read each such fact
once;
7 are `areIndividuals(b,b)`, where the class's `allValuesFrom` facts
outnumber the `isIndividual` rows the written order scanned, and 6 of
them are re-run in a recursive group, once per round. They were
recorded a sixth time when the query step's group loop became the one
fixpoint loop, with no revision loop per call: 1,664 `solve` rows and
108 query rows moved, all on cyclic bases, and only in EOB accesses. A
member that read only its own active table is no longer re-run to its
own fixpoint before its caller reads it, but waits for the group's
rounds: `areIndividuals(?0,?0)` and `areStatements(b,?0,?0)` rose in
every row that moved, and `areSubClasses(?0,?0)` fell in most.
`python tests/shape_census.py` prints such moves per call shape. Every
nested-loop row equals its `solve_sequence` row.

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

from conftest import (
    random_base, random_calls, random_query, uniform_plan,
)

from dobquery import (
    JoinMethod,
    JoinStrategy,
    execute,
    solve,
    solve_sequence,
)
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
    out = []
    for atom in random_calls(rng, base):
        result = solve(base, atom)
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
