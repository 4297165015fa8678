import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dobquery import (
    Estimate,
    JoinMethod,
    JoinStrategy,
    SamplingConfig,
    SynthConfig,
    build_catalog,
    dominates,
    exhaustive_orderings,
    explain_plan,
    generate_synthetic,
    optimize,
    parse_query,
    plan_estimate,
)
from dobquery.model import Atom, BUILTIN_SCHEMA, PredicateKind, Query, Term
from dobquery.optimizer import MAX_OPTIMIZE_SUBGOALS, OptimizerError, SubPlan
from dobquery.stats import (
    BindingPattern,
    EobStats,
    IobStats,
    StatisticsCatalog,
    all_patterns,
)


def _sub(cost, card, atoms=0b1):
    return SubPlan(atoms, (), (), Estimate(cost, card))


def test_dominates_strict():
    assert dominates(_sub(5, 3), _sub(7, 9))


def test_dominates_uncomparable_both_kept():
    a, b = _sub(5, 9), _sub(7, 3)
    assert not dominates(a, b) and not dominates(b, a)


def test_dominates_equal_is_false():
    assert not dominates(_sub(5, 3), _sub(5, 3))


def test_dominates_requires_equivalence():
    with pytest.raises(OptimizerError):
        dominates(_sub(1, 1, 0b01), _sub(1, 1, 0b10))


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
    q = parse_query("q(C):-areClasses(C,carsOnt).")
    with pytest.raises(OptimizerError):
        optimize(q, cars_exact_catalog, ())


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
    with pytest.raises(OptimizerError):
        exhaustive_orderings(q, cars_exact_catalog, max_subgoals=2)


def _random_catalog(rng):
    entries = {}
    for name, schema in BUILTIN_SCHEMA.items():
        if schema.kind is PredicateKind.EOB:
            card = rng.randint(0, 60)
            n_keys = tuple(
                rng.randint(1, card) if card else 0 for _ in range(schema.arity)
            )
            entries[name] = EobStats(card, n_keys)
        else:
            card_free = rng.uniform(0, 80)
            distinct = tuple(
                rng.uniform(1, 40) for _ in range(schema.arity)
            )
            cards, costs = {}, {}
            for p in all_patterns(schema.arity):
                c = card_free
                for pos in p.bound_positions:
                    c /= max(1.0, min(card_free, distinct[pos]))
                cards[p] = c
                costs[p] = rng.uniform(0, 300)
            entries[name] = IobStats(
                schema.arity, distinct, cards, costs
            )
    return StatisticsCatalog(entries, SamplingConfig())


def _random_query(rng, max_subgoals=5):
    n = rng.randint(2, max_subgoals)
    names = list(BUILTIN_SCHEMA)
    var_pool = [f"V{i}" for i in range(rng.randint(2, 6))]
    body = []
    for _ in range(n):
        name = rng.choice(names)
        args = tuple(
            Term.var(rng.choice(var_pool))
            if rng.random() < 0.75
            else Term.const(f"k{rng.randint(0, 9)}")
            for _ in range(BUILTIN_SCHEMA[name].arity)
        )
        body.append(Atom(name, args))
    body_vars = [v for a in body for v in a.variables]
    if not body_vars:
        return None
    return Query(Atom("q", (Term.var(rng.choice(body_vars)),)), tuple(body))


def test_optimize_matches_exhaustive_minimum():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        catalog = _random_catalog(rng)
        query = _random_query(rng)
        if query is None:
            continue
        plan = optimize(query, catalog)
        best = min(est.cost for _p, est in exhaustive_orderings(query, catalog))
        assert plan.estimate.cost == pytest.approx(best, rel=1e-12)
        checked += 1


def test_pruning_does_not_change_minimum():
    rng = random.Random(7)
    checked = 0
    while checked < 10:
        catalog = _random_catalog(rng)
        query = _random_query(rng, max_subgoals=4)
        if query is None:
            continue
        pruned = optimize(query, catalog)
        unpruned = optimize(query, catalog, prune=False)
        assert pruned.estimate.cost == pytest.approx(unpruned.estimate.cost)
        checked += 1


def test_single_strategy_search(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    nlj_only = (JoinStrategy(JoinMethod.NESTED_LOOP),)
    plan = optimize(q, cars_exact_catalog, nlj_only)
    assert all(s.method is JoinMethod.NESTED_LOOP for s in plan.strategies)


def test_worst_and_median_orderings_retrievable(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    orderings = exhaustive_orderings(q, cars_exact_catalog)
    costs = sorted(est.cost for _p, est in orderings)
    assert costs[0] < costs[-1]  # the two orderings genuinely differ


def test_explain_plan_lists_steps(cars_exact_catalog):
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    plan = optimize(q, cars_exact_catalog)
    text = explain_plan(plan, cars_exact_catalog)
    assert "isDProperty(traction,C)" in text
    assert "cost=" in text and "card=" in text
    assert text.splitlines()[1].startswith("  1.")


PLAN_PINS = Path(__file__).parent / "data" / "serve_plan_pins.json"


def test_serve_style_plans_are_pinned():
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
    assert got == json.loads(PLAN_PINS.read_text())


def _drawn_query(data):
    """Up to five subgoals whose arguments are variables of a small shared
    pool (so they repeat within and across atoms), variables private to
    one atom (so subgoals can be disconnected) or constants."""
    body = []
    for i in range(data.draw(st.integers(1, 5))):
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
    is the left-deep fold of its own ordering, bit for bit. Pareto pruning
    may keep an equal-cost ordering of lower cardinality in place of the
    lexicographically smallest one; without pruning the plan is the
    (cost, order) minimum itself."""
    catalog = _random_catalog(random.Random(seed))
    query = _drawn_query(data)
    strategies = data.draw(st.sampled_from([
        None,
        (JoinStrategy(JoinMethod.NESTED_LOOP),),
        (JoinStrategy(JoinMethod.HASH_JOIN),
         JoinStrategy(JoinMethod.BLOCK_NESTED_LOOP, 3)),
    ]))
    orderings = {
        plan.order: plan
        for plan, _ in exhaustive_orderings(query, catalog, strategies)
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
    unpruned = optimize(query, catalog, strategies, prune=False)
    assert (unpruned.order, unpruned.strategies, repr(unpruned.estimate)) == (
        best.order, best.strategies, repr(best.estimate)
    )
