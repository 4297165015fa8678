import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dobquery import (
    Estimate,
    JoinMethod,
    JoinStrategy,
    SamplingConfig,
    join_estimate,
    parse_atom,
    parse_query,
    plan_estimate,
    predicate_estimate,
)
from dobquery.costmodel import JoinTable, _atom_distinct, default_strategies
from dobquery.optimizer import plan_for_order
from dobquery.model import BUILTIN_SCHEMA, Atom, Term
from dobquery.stats import (
    EobStats,
    IobStats,
    StatisticsCatalog,
    all_patterns,
    build_catalog,
    build_exact_catalog,
    catalog_from_text,
    catalog_to_text,
)
from conftest import STAR_400, random_base, random_query


def _manual_catalog():
    """Hand-built numbers for formula-level assertions."""
    entries = {
        "isClass": EobStats(100, (4, 10)),
        "isDProperty": EobStats(3, (3, 2)),
    }
    costs = {p: 9.0 for p in all_patterns(2)}
    entries["areClasses"] = IobStats((12.0, 5.0), 60.0, costs)
    return StatisticsCatalog(entries, SamplingConfig())


def test_join_cost_formulas():
    """Joining areClasses(C,X) to isClass(C,O) at cost 3 and cardinality
    4: C is shared (distinct 4 on the left, 12 on the right), so the
    cardinality is 4 * 60 / 12 whatever the strategy. Nested loop adds 4
    calls of the bound pattern at 9 each, hash join one free call at 9."""
    table = JoinTable(
        _manual_catalog(),
        [parse_atom("isClass(C,O)"), parse_atom("areClasses(C,X)")],
    )
    nlj = JoinStrategy(JoinMethod.NESTED_LOOP)
    hash_join = JoinStrategy(JoinMethod.HASH_JOIN)
    assert table.extend(3.0, 4.0, 0b1, 1, (nlj,)) == (39.0, 20.0, nlj)
    assert table.extend(3.0, 4.0, 0b1, 1, (hash_join,)) == (
        12.0, 20.0, hash_join
    )


def test_written_order_of_a_long_star_costs_every_strategy(serve_catalog):
    """The prefix cardinality of a 400-subgoal star overflows to infinity
    on the serve catalog; each strategy is still costed, not refused."""
    plan = plan_for_order(
        STAR_400, serve_catalog, range(400), default_strategies()
    )
    assert plan.estimate.cardinality == math.inf
    assert len(plan.strategies) == 399


def test_predicate_estimate_eob_free_with_constant(cars_exact_catalog):
    est = predicate_estimate(cars_exact_catalog, parse_atom("isDProperty(traction,C)"))
    assert est.cardinality == pytest.approx(1.0)  # 3 / nKeys(arg1)=3
    assert est.cost == pytest.approx(1.0)


def test_predicate_estimate_eob_all_bound_below_one(cars_exact_catalog):
    est = predicate_estimate(
        cars_exact_catalog, parse_atom("isDProperty(traction,vehicle)")
    )
    assert est.cardinality == pytest.approx(3 / (3 * 2))
    assert est.cardinality <= 1.0


def test_predicate_estimate_iob_free(cars_exact_catalog):
    est = predicate_estimate(cars_exact_catalog, parse_atom("areClasses(C,O)"))
    assert est.cardinality == pytest.approx(12.0)


def test_predicate_estimate_bound_var_uses_bound_pattern(cars_exact_catalog):
    free = predicate_estimate(cars_exact_catalog, parse_atom("areClasses(C,O)"))
    bound = predicate_estimate(
        cars_exact_catalog, parse_atom("areClasses(C,O)"), {"C"}
    )
    assert bound.cardinality < free.cardinality


def _reduction_factor(catalog, left: str, right: str) -> float:
    """The join table's reduction factor of subgoal `right` after `left`."""
    table = JoinTable(catalog, [parse_atom(left), parse_atom(right)])
    return table.inputs(0b1, 1)[0]


def test_reduction_factor_no_shared_vars():
    catalog = _manual_catalog()
    rf = _reduction_factor(catalog, "isClass(A,B)", "areClasses(C,D)")
    assert rf == 1.0


def test_reduction_factor_shared_var():
    catalog = _manual_catalog()
    # C: 4 distinct on the left (isClass arg 1), 12.0 on the right
    rf = _reduction_factor(catalog, "isClass(C,B)", "areClasses(C,D)")
    assert rf == pytest.approx(1 / 12.0)


def test_reduction_factor_two_shared_vars():
    catalog = _manual_catalog()
    rf = _reduction_factor(catalog, "isClass(C,O)", "areClasses(C,O)")
    assert rf == pytest.approx((1 / 12.0) * (1 / 10.0))


def test_join_estimate_cardinality_strategy_invariant():
    catalog = _manual_catalog()
    left = Estimate(cost=5.0, cardinality=7.0)
    cards = set()
    for strategy in (
        JoinStrategy(JoinMethod.NESTED_LOOP),
        JoinStrategy(JoinMethod.HASH_JOIN),
    ):
        est = join_estimate(
            catalog, left, [parse_atom("isClass(C,O)")],
            parse_atom("areClasses(C,X)"), strategy,
        )
        cards.add(round(est.cardinality, 9))
    assert len(cards) == 1


def test_nested_loop_degenerates_with_empty_left():
    catalog = _manual_catalog()
    left = Estimate(cost=5.0, cardinality=0.0)
    est = join_estimate(
        catalog, left, [parse_atom("isClass(C,O)")],
        parse_atom("areClasses(C,X)"), JoinStrategy(JoinMethod.NESTED_LOOP),
    )
    assert est.cost == 5.0


def test_nested_loop_monotone_in_instantiated_cost():
    catalog = _manual_catalog()
    low = dict(catalog.entries)
    stats = catalog.entries["areClasses"]
    cheap = IobStats(
        stats.distinct_values, stats.cardinality,
        {p: 1.0 for p in all_patterns(2)},
    )
    low["areClasses"] = cheap
    cheaper = StatisticsCatalog(low, SamplingConfig())
    left = Estimate(cost=5.0, cardinality=7.0)
    args = ([parse_atom("isClass(C,O)")], parse_atom("areClasses(C,X)"),
            JoinStrategy(JoinMethod.NESTED_LOOP))
    assert (
        join_estimate(cheaper, left, *args).cost
        <= join_estimate(catalog, left, *args).cost
    )


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_estimates_survive_the_catalog_text(cars_base, sampled):
    """Every predicate under every binding pattern has the same estimate,
    bit for bit, on a cars catalog read back from its text as on the
    catalog built."""
    if sampled:
        built = build_catalog(cars_base, SamplingConfig(seed=42))
    else:
        built = build_exact_catalog(cars_base)
    loaded = catalog_from_text(catalog_to_text(built))
    for name, schema in BUILTIN_SCHEMA.items():
        atom = Atom(name, tuple(Term.var(f"V{i}") for i in range(schema.arity)))
        for pattern in all_patterns(schema.arity):
            bound = {f"V{i}" for i in pattern.bound_positions}
            assert repr(predicate_estimate(loaded, atom, bound)) == repr(
                predicate_estimate(built, atom, bound)
            ), (name, str(pattern))


def test_plan_estimate_single_atom(cars_exact_catalog):
    atom = parse_atom("areClasses(C,O)")
    assert plan_estimate(cars_exact_catalog, [atom], []) == predicate_estimate(
        cars_exact_catalog, atom
    )


def test_plan_estimate_orders_cars_query(cars_exact_catalog):
    nlj = JoinStrategy(JoinMethod.NESTED_LOOP)
    q = parse_query("q(O):-areClasses(C,O),isDProperty(traction,C).")
    q_prime = parse_query("q(O):-isDProperty(traction,C),areClasses(C,O).")
    cost_q = plan_estimate(cars_exact_catalog, q.body, [nlj]).cost
    cost_q_prime = plan_estimate(cars_exact_catalog, q_prime.body, [nlj]).cost
    assert cost_q_prime < cost_q


def test_plan_estimate_invariant_under_renaming(cars_exact_catalog):
    nlj = JoinStrategy(JoinMethod.NESTED_LOOP)
    a = [parse_atom("isDProperty(traction,C)"), parse_atom("areClasses(C,O)")]
    b = [parse_atom("isDProperty(traction,Z9)"), parse_atom("areClasses(Z9,W)")]
    assert plan_estimate(cars_exact_catalog, a, [nlj]) == plan_estimate(
        cars_exact_catalog, b, [nlj]
    )


def test_estimates_finite_and_nonnegative(cars_exact_catalog):
    from dobquery import default_strategies

    q = parse_query(
        "q(C,O,I):-areClasses(C,O),areIndividuals(I,C),subClassOf(C,C2)."
    )
    for strategy in default_strategies():
        est = plan_estimate(
            cars_exact_catalog, q.body, [strategy, strategy]
        )
        assert est.cost >= 0 and est.cardinality >= 0
        assert est.cost < float("inf")


def _random_body(seed, data):
    """An exact catalog of a random base and a body of 1-8 subgoals,
    made of consecutive `random_query` bodies."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    n = data.draw(st.integers(1, 8))
    body = []
    while len(body) < n:
        body += random_query(rng, base).body
    return build_exact_catalog(base), body[:n]


@given(st.integers(0, 2**32 - 1), st.data())
def test_inputs_do_not_depend_on_the_call_order(seed, data):
    """Asked for every (left set, right subgoal) pair in a drawn order, a
    fresh table's per-set counts give the inputs of a brute-force scan:
    the smallest distinct count over the left set's holders of each
    variable, divided in the right subgoal's variable order."""
    catalog, body = _random_body(seed, data)
    distinct = [_atom_distinct(catalog, atom) for atom in body]
    n = len(body)
    pairs = list(itertools.product(range(1, 1 << n), range(n)))
    random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(pairs)
    table = JoinTable(catalog, body)
    for left, right in pairs:
        rf, shared = 1.0, []
        for var, d_right in distinct[right].items():
            holders = [
                distinct[i][var] for i in range(n)
                if left >> i & 1 and var in distinct[i]
            ]
            if holders:
                rf /= max(min(holders), d_right)
                shared.append(var)
        inst_cost = predicate_estimate(catalog, body[right], set(shared)).cost
        assert table.inputs(left, right) == (rf, inst_cost), (left, right)
