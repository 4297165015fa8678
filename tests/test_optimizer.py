import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dobquery import (
    Estimate,
    JoinMethod,
    JoinStrategy,
    SamplingConfig,
    SynthConfig,
    build_catalog,
    default_strategies,
    exhaustive_orderings,
    explain_plan,
    generate_synthetic,
    optimize,
    parse_query,
    plan_estimate,
)
from dobquery import costmodel
from dobquery.costmodel import JoinTable
from dobquery.model import Atom, BUILTIN_SCHEMA, Query, Term
from dobquery.optimizer import (
    MAX_EXHAUSTIVE_SUBGOALS,
    MAX_OPTIMIZE_SUBGOALS,
    OptimizerError,
    Plan,
    plan_for_order,
)
from conftest import random_catalog, random_catalog_query


def test_optimize_cars_golden(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    plan = optimize(q, cars_exact_catalog)
    assert [str(a) for a in plan.atoms] == [
        "isDProperty(traction,C)",
        "areClasses(C,O)",
    ]


def test_optimize_single_atom(cars_exact_catalog):
    q = parse_query("q(C):-areClasses(C,carsOnt).")
    plan = optimize(q, cars_exact_catalog)
    assert plan.order == (0,) and plan.strategies == ()


def test_optimize_caps_the_body_size(cars_exact_catalog):
    body = ",".join(
        f"subClassOf(C{i},C{i + 1})"
        for i in range(MAX_OPTIMIZE_SUBGOALS + 1)
    )
    q = parse_query(f"q(C0):-{body}.")
    with pytest.raises(OptimizerError, match=(
        f"capped at {MAX_OPTIMIZE_SUBGOALS} subgoals, "
        f"the query has {MAX_OPTIMIZE_SUBGOALS + 1}"
    )):
        optimize(q, cars_exact_catalog)


def test_optimize_rejects_empty_strategy_set(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    for plans in (
        optimize,
        exhaustive_orderings,
        lambda q, cat, s: plan_for_order(q, cat, (1, 0), s),
    ):
        with pytest.raises(OptimizerError, match="at least one join strategy"):
            plans(q, cars_exact_catalog, ())


def test_plan_covers_each_atom_once(cars_exact_catalog):
    q = parse_query(
        "q(C,O,I):-areClasses(C,O),areIndividuals(I,C),subClassOf(C,D)."
    )
    plan = optimize(q, cars_exact_catalog)
    assert sorted(plan.order) == [0, 1, 2]
    assert len(plan.strategies) == 2


def test_exhaustive_count_and_bound(cars_exact_catalog):
    q = parse_query(
        "q(C,O,I):-areClasses(C,O),areIndividuals(I,C),subClassOf(C,D)."
    )
    orderings = exhaustive_orderings(q, cars_exact_catalog)
    assert len(orderings) == 6
    body = ",".join(
        f"subClassOf(C{i},C{i + 1})"
        for i in range(MAX_EXHAUSTIVE_SUBGOALS + 1)
    )
    with pytest.raises(OptimizerError, match=(
        f"capped at {MAX_EXHAUSTIVE_SUBGOALS} subgoals"
    )):
        exhaustive_orderings(parse_query(f"q(C0):-{body}."), cars_exact_catalog)


@pytest.mark.parametrize("order", [(0, 1), (0, 0, 1), (0, 1, 2, 3)])
def test_plan_for_order_refuses_a_non_permutation(cars_exact_catalog, order):
    """Too short, repeated and out-of-range orders of a 3-subgoal body are
    refused with the order and the body size, not planned or indexed."""
    q = parse_query(
        "q(O):-areClasses(C,O),isDProperty(traction,C),isClass(C,O)."
    )
    with pytest.raises(OptimizerError, match=(
        rf"order \({', '.join(map(str, order))}\) is not a permutation "
        "of the 3 body positions"
    )):
        plan_for_order(q, cars_exact_catalog, order)


@pytest.mark.parametrize("shape", ["chain", "star"])
@pytest.mark.parametrize("subgoals", range(3, 9))
def test_optimize_costs_each_instantiation_once(monkeypatch, shape, subgoals):
    """`optimize` asks the catalog for each subgoal's constant-only estimate
    and then once per distinct (right subgoal, shared variables) pair of
    the DP, however many left sets share them. A count, not a timing."""
    base, queries = generate_synthetic(SynthConfig(
        seed=0, query_subgoals=subgoals,
        chain_queries=int(shape == "chain"), star_queries=int(shape == "star"),
    ))
    catalog = build_catalog(base, SamplingConfig())
    calls = []
    counted = costmodel.predicate_estimate

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(costmodel, "predicate_estimate", counting)
    assert queries
    for query in queries:
        body = query.body
        n = len(body)
        variables = [set(atom.variables) for atom in body]
        pairs = set()
        for left in range(1, 1 << n):
            covered = set().union(*(
                variables[i] for i in range(n) if left >> i & 1
            ))
            for right in range(n):
                if not left >> right & 1:
                    pairs.add((right, frozenset(variables[right] & covered)))
        calls.clear()
        optimize(query, catalog)
        assert len(calls) <= n + len(pairs), query


def test_optimize_matches_exhaustive_minimum():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        catalog = random_catalog(rng)
        query = random_catalog_query(rng)
        if query is None:
            continue
        plan = optimize(query, catalog)
        orderings = exhaustive_orderings(query, catalog)
        best = min(o.estimate.cost for o in orderings)
        assert plan.estimate.cost == pytest.approx(best, rel=1e-12)
        checked += 1


def test_single_strategy_search(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    nlj_only = (JoinStrategy(JoinMethod.NESTED_LOOP),)
    plan = optimize(q, cars_exact_catalog, nlj_only)
    assert all(s.method is JoinMethod.NESTED_LOOP for s in plan.strategies)


def test_worst_and_median_orderings_retrievable(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    orderings = exhaustive_orderings(q, cars_exact_catalog)
    costs = sorted(plan.estimate.cost for plan in orderings)
    assert costs[0] < costs[-1]  # the two orderings genuinely differ


def test_explain_plan_lists_steps(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    plan = optimize(q, cars_exact_catalog)
    text = explain_plan(plan, cars_exact_catalog)
    assert "isDProperty(traction,C)" in text
    assert "cost=" in text and "card=" in text
    assert text.splitlines()[1].startswith("  1.")


PLAN_PINS = Path(__file__).parent / "data" / "serve_plan_pins.json"


def serve_plans() -> list:
    """Order, strategies and exact estimate of the optimized plan for the
    synthetic chain and star queries of 3-7 subgoals (scale 1, corpus
    seed 0, default sampling)."""
    base, _ = generate_synthetic(SynthConfig(seed=0))
    catalog = build_catalog(base, SamplingConfig())
    got = []
    for n in range(3, 8):
        _, queries = generate_synthetic(SynthConfig(
            seed=0, chain_queries=4, star_queries=4, query_subgoals=n
        ))
        for q in queries:
            plan = optimize(q, catalog)
            got.append([
                str(q), list(plan.order),
                [str(s) for s in plan.strategies], repr(plan.estimate),
            ])
    return got


def test_serve_style_plans_are_pinned():
    assert serve_plans() == json.loads(PLAN_PINS.read_text())


def _drawn_query(data, max_subgoals=5):
    """Up to `max_subgoals` subgoals whose arguments are variables of a
    small shared pool (so they repeat within and across atoms), variables
    private to one atom (so subgoals can be disconnected) or constants."""
    body = []
    for i in range(data.draw(st.integers(1, max_subgoals))):
        pred = data.draw(st.sampled_from(sorted(BUILTIN_SCHEMA)))
        args = []
        for pos in range(BUILTIN_SCHEMA[pred].arity):
            kind = data.draw(st.integers(0, 5))
            if kind < 3:
                args.append(Term.var(data.draw(st.sampled_from("ABC"))))
            elif kind < 5:
                args.append(Term.var(f"Z{i}_{pos}"))
            else:
                args.append(Term.const(f"k{data.draw(st.integers(0, 2))}"))
        body.append(Atom(pred, tuple(args)))
    head_vars = sorted({v for a in body for v in a.variables})
    head = Atom("q", tuple(map(Term.var, head_vars)) + (Term.const("h"),))
    return Query(head, tuple(body))


@given(st.integers(0, 2**32 - 1), st.data())
def test_optimize_is_the_exhaustive_minimum(seed, data):
    """The DP's plan costs exactly the cheapest ordering, and its estimate
    is the left-deep fold of its own ordering, bit for bit. Of several
    equal-cost orderings it may return any one."""
    catalog = random_catalog(random.Random(seed))
    query = _drawn_query(data)
    strategies = data.draw(st.sampled_from([
        None,
        (JoinStrategy(JoinMethod.NESTED_LOOP),),
        (JoinStrategy(JoinMethod.HASH_JOIN),),
    ]))
    orderings = {
        plan.order: plan
        for plan in exhaustive_orderings(query, catalog, strategies)
    }
    best = min(orderings.values(), key=lambda p: (p.estimate.cost, p.order))
    plan = optimize(query, catalog, strategies)
    assert plan.estimate.cost == best.estimate.cost
    twin = orderings[plan.order]
    assert (plan.strategies, repr(plan.estimate)) == (
        twin.strategies, repr(twin.estimate)
    )
    assert repr(plan_estimate(catalog, plan.atoms, plan.strategies)) == repr(
        plan.estimate
    )


def _reference_optimize(query, catalog, strategies):
    """The DP as it stood with one `Plan` per subgoal set: sets sorted by
    size, then by member list, and a new `Plan` per improving extension."""
    def members(atom_set):
        return [i for i in range(atom_set.bit_length()) if atom_set >> i & 1]

    n = len(query.body)
    joins = JoinTable(catalog, query.body)
    kept = {
        1 << i: Plan(query, (i,), (), est)
        for i, est in enumerate(joins.estimates)
    }
    full = (1 << n) - 1
    for left in sorted(
        range(1, full), key=lambda s: (s.bit_count(), members(s))
    ):
        prefix = kept[left]
        for idx in range(n):
            if left >> idx & 1:
                continue
            cost, card, strategy = joins.extend(
                prefix.estimate.cost, prefix.estimate.cardinality, left, idx,
                strategies,
            )
            estimate = Estimate(cost, card)
            grown = left | 1 << idx
            best = kept.get(grown)
            if best is None or (estimate.cost, estimate.cardinality) < (
                best.estimate.cost, best.estimate.cardinality
            ):
                kept[grown] = Plan(
                    query, prefix.order + (idx,),
                    prefix.strategies + (strategy,), estimate,
                )
    return kept[full]


@given(st.integers(0, 2**32 - 1), st.data())
def test_optimize_equals_the_reference_dp(seed, data):
    """Visiting subgoal sets in integer order and building the plan from
    the last-subgoal links gives the reference DP's plan: same order,
    same strategies, same estimate bit for bit, under every non-empty
    subset of the strategies."""
    catalog = random_catalog(random.Random(seed))
    query = _drawn_query(data, max_subgoals=8)
    every = default_strategies()
    for size in range(1, len(every) + 1):
        for strategies in itertools.combinations(every, size):
            assert optimize(query, catalog, strategies) == (
                _reference_optimize(query, catalog, strategies)
            )


@given(
    st.integers(0, 2**16),
    st.integers(3, 5),
    st.sampled_from([
        (JoinStrategy(JoinMethod.NESTED_LOOP),), None,
        (JoinStrategy(JoinMethod.HASH_JOIN),),
    ]),
)
def test_optimize_returns_the_plan_of_its_ordering(seed, subgoals, strategies):
    """On synthetic chain and star queries with a sampled catalog, the
    DP's plan is the `exhaustive_orderings` plan of its ordering: same
    strategies, same estimate. The experiments read the chosen plan's
    actual cost from that ordering's row instead of executing it again."""
    base, queries = generate_synthetic(
        SynthConfig(seed=seed, query_subgoals=subgoals)
    )
    catalog = build_catalog(base, SamplingConfig())
    for query in queries:
        plan = optimize(query, catalog, strategies)
        orderings = {
            o.order: o
            for o in exhaustive_orderings(query, catalog, strategies)
        }
        assert plan == orderings[plan.order], query


@given(st.integers(0, 2**32 - 1), st.data())
def test_one_plan_per_subgoal_set_is_exact(seed, data):
    """The two cost-model facts `optimize` relies on: every ordering of a
    subgoal set folds to the same cardinality, and each strategy's
    extension cost is nondecreasing in the left cost at a fixed left
    cardinality."""
    catalog = random_catalog(random.Random(seed))
    query = _drawn_query(data)
    joins = JoinTable(catalog, query.body)
    n = len(query.body)
    nlj = [(JoinStrategy(JoinMethod.NESTED_LOOP),)] * (n - 1)
    cards: dict[int, list[float]] = {}
    for perm in itertools.permutations(range(n)):
        atom_set = 0
        for idx, (estimate, _) in zip(perm, joins.fold(perm, nlj)):
            atom_set |= 1 << idx
            cards.setdefault(atom_set, []).append(estimate.cardinality)
    for found in cards.values():
        assert found == pytest.approx([found[0]] * len(found), rel=1e-12)

    assume(n >= 2)
    right = data.draw(st.integers(0, n - 1))
    others = [i for i in range(n) if i != right]
    left = sum(1 << i for i in data.draw(
        st.lists(st.sampled_from(others), min_size=1, unique=True)
    ))
    number = st.floats(0, 1e9, allow_nan=False)
    card = data.draw(number)
    low, high = sorted((data.draw(number), data.draw(number)))
    for strategy in default_strategies():
        cheap = joins.extend(low, card, left, right, (strategy,))[0]
        dear = joins.extend(high, card, left, right, (strategy,))[0]
        assert cheap <= dear


if __name__ == "__main__":
    # Run this file as a script to print fresh serve plan pins.
    print(json.dumps(serve_plans(), indent=1))
