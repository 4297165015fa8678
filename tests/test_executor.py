import random
import time
import tracemalloc
from itertools import compress, permutations, repeat
from operator import is_, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dobquery import (
    EngineLimitError,
    JoinMethod,
    JoinStrategy,
    MemoTable,
    execute,
    explain_plan,
    optimize,
    parse_atom,
    parse_query,
    solve,
    solve_sequence,
)
from dobquery import engine
from dobquery.engine import (
    Answers, Batch, Counters, EvaluationResult, check_batch, compile_query,
    evaluate,
)
from dobquery.executor import _equi_join, shared_prefixes
from dobquery.model import (
    BUILTIN_SCHEMA, EOB_PREDICATES, IOB_PREDICATES, ArgDomain, Atom, Query,
    Term,
)
from dobquery.optimizer import Plan, plan_for_order
from dobquery.store import OntologyBase, SymbolTable, _getter
from conftest import (
    SERVE_Q17, binding_patterns, execute_all_strategies, random_base,
    random_query, refuse_text, uniform_plan,
)

CARS_Q = "q(O):-areClasses(C,O),isDProperty(traction,C)."
CARS_Q_PRIME = "q(O):-isDProperty(traction,C),areClasses(C,O)."


@pytest.mark.parametrize("text", [CARS_Q, CARS_Q_PRIME])
@pytest.mark.parametrize("method", list(JoinMethod))
def test_cars_answers_all_strategies_and_orderings(cars_base, text, method):
    plan = uniform_plan(parse_query(text), JoinStrategy(method))
    report = execute(cars_base, plan)
    assert [str(a) for a in report.answers] == [
        "q(carsOnt)", "q(source1)", "q(source2)"
    ]


def test_ordering_cost_comparison_nested_loop(cars_base):
    nlj = JoinStrategy(JoinMethod.NESTED_LOOP)
    cost_q = execute(cars_base, uniform_plan(parse_query(CARS_Q), nlj)).actual_cost
    cost_q_prime = execute(
        cars_base, uniform_plan(parse_query(CARS_Q_PRIME), nlj)
    ).actual_cost
    assert cost_q > cost_q_prime


def test_empty_first_relation_short_circuits(cars_base):
    q = parse_query("q(I):-isStatement(I,P,J),areClasses(C,O).")
    report = execute(
        cars_base, uniform_plan(q, JoinStrategy(JoinMethod.NESTED_LOOP))
    )
    assert list(report.answers) == []
    first_step = report.per_step[0]
    assert report.actual_cost == first_step.actual_cost


def test_nested_loop_counters_match_solve_sequence(cars_base):
    for text in (CARS_Q, CARS_Q_PRIME):
        q = parse_query(text)
        report = execute(
            cars_base, uniform_plan(q, JoinStrategy(JoinMethod.NESTED_LOOP))
        )
        _, counters = solve_sequence(cars_base, q.body)
        assert report.inferred_fact_count == counters.inferred_facts
        assert report.eob_access_count == counters.eob_accesses


def test_hash_join_step_costs_both_sides_independently(cars_base):
    q = parse_query(CARS_Q_PRIME)
    report = execute(cars_base, uniform_plan(q, JoinStrategy(JoinMethod.HASH_JOIN)))
    fresh = solve(cars_base, parse_atom("areClasses(C,O)"), MemoTable())
    step = report.per_step[1]
    assert step.inferred_facts == fresh.inferred_fact_count
    assert step.eob_accesses == fresh.eob_access_count


def test_execute_all_strategies_equal_answers(cars_base):
    reports = execute_all_strategies(cars_base, parse_query(CARS_Q_PRIME))
    answer_sets = {
        m: tuple(str(a) for a in r.answers) for m, r in reports.items()
    }
    assert len(set(answer_sets.values())) == 1
    assert set(answer_sets) == set(JoinMethod)


def test_execute_optimized_plan(cars_base, cars_exact_catalog):
    plan = optimize(parse_query(CARS_Q), cars_exact_catalog)
    report = execute(cars_base, plan)
    assert len(report.answers) == 3


def test_uniform_plan_has_no_estimate(cars_base, cars_exact_catalog):
    """A plan built without a catalog carries no estimate, not zeros; its
    execution and explain are those of the estimated plan."""
    query = parse_query(CARS_Q)
    plan = uniform_plan(query, _NLJ)
    assert plan.estimate is None
    estimated = plan_for_order(query, cars_exact_catalog, plan.order, [_NLJ])
    assert estimated.estimate.cost > 0
    assert explain_plan(plan, cars_exact_catalog) == explain_plan(
        estimated, cars_exact_catalog
    )
    assert execute(cars_base, plan) == execute(cars_base, estimated)


def _flat_answers(symbols, head, var_slot, substs):
    """The answers of `head` over a flat batch of `substs`."""
    return Answers(symbols, head, var_slot, Batch(substs, len(var_slot)))


@settings(max_examples=300)
@given(st.integers(0, 4), st.data())
def test_answer_rows_are_the_sorted_distinct_projection(width, data):
    """The answer rows of distinct substitutions are the sorted distinct
    head projections, whether the head keeps every variable (in any
    order), drops some, repeats one or holds constants."""
    substs = data.draw(st.lists(
        st.tuples(*[st.integers(0, 1)] * width), unique=True
    ))
    names = [f"V{i}" for i in range(width)]
    var_slot = dict(zip(names, data.draw(st.permutations(range(width)))))
    if not names or data.draw(st.booleans()):
        args = data.draw(st.permutations(names))
    else:
        args = data.draw(st.lists(st.sampled_from(names), unique=True))
    if args and data.draw(st.booleans()):
        args.append(data.draw(st.sampled_from(args)))
    for _ in range(data.draw(st.integers(0 if args else 1, 2))):
        args.insert(data.draw(st.integers(0, len(args))), "k")
    head = Atom("q", tuple(
        Term.const(a) if a == "k" else Term.var(a) for a in args
    ))
    slots = [var_slot[t.value] for t in head.args if t.is_var]
    assert _flat_answers(None, head, var_slot, substs).rows == tuple(
        sorted(set(map(_getter(slots), substs)))
    )


def test_cross_product_step(cars_base):
    q = parse_query("q(P,O):-isDProperty(P,vehicle),isOntology(O).")
    for method in JoinMethod:
        report = execute(cars_base, uniform_plan(q, JoinStrategy(method)))
        assert len(report.answers) == 6  # 2 properties x 3 ontologies


@pytest.mark.parametrize("seed", range(10))
def test_strategy_soundness_random(seed):
    rng = random.Random(400 + seed)
    base = random_base(rng, max_facts=120)
    for _ in range(3):
        query = random_query(rng, base)
        order = tuple(rng.sample(range(len(query.body)), len(query.body)))
        reports = execute_all_strategies(base, query, order=order)
        answer_sets = {
            m: frozenset(str(a) for a in r.answers)
            for m, r in reports.items()
        }
        assert len(set(answer_sets.values())) == 1
        # answers equal the sideways-passing reference on the same ordering
        subs, _ = solve_sequence(base, [query.body[i] for i in order])
        want = set()
        for s in subs:
            ground = Atom(
                "q",
                tuple(Term.const(s[t.value]) for t in query.head.args),
            )
            want.add(str(ground))
        assert set(answer_sets[JoinMethod.NESTED_LOOP]) == want


@pytest.mark.parametrize("seed", range(5))
def test_ordering_soundness_random(seed):
    import itertools

    rng = random.Random(900 + seed)
    base = random_base(rng, max_facts=100)
    query = random_query(rng, base)
    reference = None
    for perm in itertools.permutations(range(len(query.body))):
        report = execute(
            base,
            uniform_plan(query, JoinStrategy(JoinMethod.HASH_JOIN), perm),
        )
        answers = frozenset(str(a) for a in report.answers)
        if reference is None:
            reference = answers
        assert answers == reference


_CROSS_Q = "q(P,O):-isDProperty(P,vehicle),isOntology(O)."
_NLJ = JoinStrategy(JoinMethod.NESTED_LOOP)
_HASH = JoinStrategy(JoinMethod.HASH_JOIN)


@pytest.mark.parametrize("text, strategy, cost, steps", [
    (CARS_Q, _NLJ, 27, [(14, 10), (0, 3)]),
    (CARS_Q, _HASH, 25, [(14, 10), (0, 1)]),
    (CARS_Q_PRIME, _NLJ, 10, [(0, 1), (5, 4)]),
    (_CROSS_Q, _HASH, 5, [(0, 2), (0, 3)]),
])
def test_pinned_step_counters_on_cars(cars_base, text, strategy, cost, steps):
    """(inferred facts, EOB accesses) per step: nested loop probes once per
    incoming substitution, hash join once."""
    report = execute(cars_base, uniform_plan(parse_query(text), strategy))
    assert report.actual_cost == cost
    assert [
        (s.inferred_facts, s.eob_accesses) for s in report.per_step
    ] == steps


_CYCLE_Q = "q(W,X) :- subClassOf(W,X), areSubClasses(W,X)."


def _nested_loop_and_sequence(base, query):
    """(head tuples, inferred facts, EOB accesses) of the written order
    under nested-loop `execute` and under `solve_sequence`."""
    report = execute(base, uniform_plan(query, _NLJ))
    substs, counters = solve_sequence(base, query.body)
    return (
        {tuple(t.value for t in a.args) for a in report.answers},
        report.inferred_fact_count, report.eob_access_count,
    ), (
        {tuple(s[t.value] for t in query.head.args) for s in substs},
        counters.inferred_facts, counters.eob_accesses,
    )


@example(9000)
@example(9011)
@given(st.integers(0, 2**32 - 1))
def test_nested_loop_counts_as_solve_sequence(seed):
    """The counted cost of a recursive group depends on which member is
    called first, and random bases often have subclass, import and
    statement cycles. The nested loop runs each batch in the order
    `solve_sequence` does, so the two give the same head tuples and
    count the same work for a random query and for `_CYCLE_Q`."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    for query in (random_query(rng, base), parse_query(_CYCLE_Q)):
        executed, sequenced = _nested_loop_and_sequence(base, query)
        assert executed == sequenced, query


@pytest.mark.parametrize("seed, counts", [
    (9000, (20, 201)),
    (9011, (37, 290)),
])
def test_recursive_group_counts_pinned(seed, counts):
    """(inferred facts, EOB accesses) of `_CYCLE_Q` on two bases where a
    nested loop over id-sorted batches counted (20, 262) and (37, 374)."""
    base = random_base(random.Random(seed), max_facts=120)
    executed, sequenced = _nested_loop_and_sequence(
        base, parse_query(_CYCLE_Q)
    )
    assert executed == sequenced
    assert executed[1:] == counts


_ALL_STRATEGIES = [_NLJ, _HASH]

# Variables per argument domain; a value can be an individual, so value
# positions share the individual variables and join with them.
_DOMAIN_VARS = {
    ArgDomain.CLASS: ("C", "D"),
    ArgDomain.ONTOLOGY: ("O", "P"),
    ArgDomain.INDIVIDUAL: ("I", "J"),
    ArgDomain.PROPERTY: ("R",),
    ArgDomain.VALUE: ("I", "J", "V"),
}


def _random_atom(data, pred, constants):
    """Mostly variables of the argument's domain, so atoms join and repeat
    variables; otherwise a constant of that domain or, rarely, a constant
    the base never saw."""
    args = []
    for domain in BUILTIN_SCHEMA[pred].arg_domains:
        kind = data.draw(st.integers(0, 9))
        if kind < 7:
            variables = _DOMAIN_VARS[domain]
            args.append(Term.var(data.draw(st.sampled_from(variables))))
        elif kind < 9 and constants[domain]:
            pool = constants[domain]
            args.append(Term.const(data.draw(st.sampled_from(pool))))
        else:
            args.append(Term.const("absent"))
    return Atom(pred, tuple(args))


def _constants_by_domain(base):
    """The base's constant texts per argument domain, sorted."""
    constants = {d: set() for d in ArgDomain}
    for fact in base.facts():
        for d, t in zip(BUILTIN_SCHEMA[fact.predicate].arg_domains, fact.args):
            constants[d].add(t.value)
    return {d: sorted(values) for d, values in constants.items()}


@given(st.integers(0, 2**32 - 1), st.data())
def test_strategies_agree_with_solve_sequence(seed, data):
    """Every strategy returns the answers of the written order's
    nested-loop evaluation, in text order, on random (often cyclic) bases.
    Atoms repeat variables and use constants absent from the base, and the
    head carries a constant."""
    base = random_base(random.Random(seed), max_facts=60)
    constants = _constants_by_domain(base)
    preds = sorted(
        p for p in BUILTIN_SCHEMA if base.rows(p) or p in IOB_PREDICATES
    )
    body = [
        _random_atom(data, pred, constants)
        for pred in data.draw(
            st.lists(st.sampled_from(preds), min_size=1, max_size=3)
        )
    ]
    variables = sorted({v for a in body for v in a.variables})
    head_const = data.draw(
        st.sampled_from(["hc", "absent", *constants[ArgDomain.CLASS]])
    )
    query = Query(Atom("q", tuple(
        [Term.var(v) for v in variables] + [Term.const(head_const)]
    )), tuple(body))
    order = tuple(data.draw(st.permutations(range(len(body)))))

    substs, counters = solve_sequence(base, [body[i] for i in order])
    want = sorted({
        str(Atom("q", tuple(
            Term.const(s[t.value]) if t.is_var else t for t in query.head.args
        )))
        for s in substs
    })
    for strategy in _ALL_STRATEGIES:
        report = execute(base, uniform_plan(query, strategy, order))
        assert [str(a) for a in report.answers] == want, strategy


def test_answers_compare_by_id_rows(cars_base, monkeypatch):
    """Two orderings run, compare equal and have a length with no text
    built, and so do two `solve` calls; each report's answers, once
    compared, materialize the same list each time they are read."""
    query = parse_query(CARS_Q)
    atom = parse_atom("areClasses(C,carsOnt)")
    with monkeypatch.context() as patch:
        patch.setattr(SymbolTable, "text", refuse_text)
        first, second = (
            execute(cars_base, uniform_plan(query, _NLJ, order))
            for order in [(0, 1), (1, 0)]
        )
        assert first.answers == second.answers
        assert len(first.answers) == 3
        solved = solve(cars_base, atom)
        assert solved.answers == solve(cars_base, atom).answers
        assert len(solved.answers) == 4
    for report in (first, second, solved):
        assert list(report.answers) == list(report.answers)
    # another head: the rows agree, the atoms do not
    other = execute(cars_base, uniform_plan(
        parse_query("r(O):-areClasses(C,O),isDProperty(traction,C)."), _NLJ
    ))
    assert other.answers.rows == first.answers.rows
    assert other.answers != first.answers
    assert not first.answers == 3 and first.answers != 3


def _refuse_rows(_answers):
    raise AssertionError("answer rows built")


def test_len_of_a_full_head_builds_no_row(cars_base, monkeypatch):
    """The hash plan defers its second step; the count of a head that
    keeps every variable is the batch's count, read with no answer row
    built, and it is the count of the rows once they are built."""
    query = parse_query("q(C,O,P):-areClasses(C,O),isDProperty(P,C).")
    report = execute(cars_base, uniform_plan(query, _HASH))
    assert report.answers._batch.lists  # the deferred step's match lists
    with monkeypatch.context() as patch:
        patch.setattr(Answers, "_built", _refuse_rows)
        assert len(report.answers) == 9
    assert len(report.answers.rows) == len(report.answers) == 9
    assert report.answers == execute(
        cars_base, uniform_plan(query, _NLJ)
    ).answers


@pytest.mark.parametrize("head, in_order", [
    ("q(C,O,P)", True), ("q(P,C,O)", False), ("q(O)", False),
    ("q(C,k,C,P,O)", False),
])
def test_the_head_projection_is_fixed_when_the_answers_are_made(
        cars_base, monkeypatch, head, in_order):
    """Reading the rows of the hash plan's deferred batch builds no
    projection: it is one `Batch.expanded` call with the projection made
    with the answers, none for a head that reads every slot in order."""
    body = "areClasses(C,O),isDProperty(P,C)."
    query = parse_query(f"{head}:-{body}")
    want = execute(cars_base, uniform_plan(query, _NLJ)).answers.rows
    answers = execute(cars_base, uniform_plan(query, _HASH)).answers
    calls = []
    expanded = Batch.expanded

    def counted(batch, project=None):
        calls.append(project)
        return expanded(batch, project)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_getter", _refuse_rows)
        patch.setattr(Batch, "expanded", counted)
        assert answers.rows == want
    assert list(answers) == list(answers)
    assert len(calls) == 1 and (calls[0] is None) == in_order


@given(st.integers(0, 2**32 - 1), st.data())
def test_answers_kept_from_a_shared_prefix_scope_read_as_fresh(seed, data):
    """Answers made inside a `shared_prefixes()` scope and read only
    after it has run every ordering, while later orderings rewound and
    extended the run's variable slots, have the rows, count and text of
    a fresh execution of their plan, under both strategies. Heads keep
    every variable or drop some, in any order."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    query = random_query(rng, base)
    names = [t.value for t in query.head.args]
    if data.draw(st.booleans()):
        names = data.draw(st.permutations(names))
    else:
        names = data.draw(st.lists(
            st.sampled_from(names), min_size=1, unique=True
        ))
    query = Query(Atom("q", tuple(map(Term.var, names))), query.body)
    orders = list(permutations(range(len(query.body))))
    for strategy in (_NLJ, _HASH):
        plans = [uniform_plan(query, strategy, order) for order in orders]
        with shared_prefixes():
            kept = [execute(base, plan).answers for plan in plans]
        for plan, answers in zip(plans, kept):
            fresh = execute(base, plan).answers
            assert len(answers) == len(fresh.rows)
            assert [str(a) for a in answers] == [str(a) for a in fresh]
            assert answers.rows == fresh.rows


# Constant texts, plain or quoted: spaces, commas, quotes, backslashes and
# plain texts that are prefixes of one another.
_TEXTS = st.text(alphabet="ab1_.:, '\\Z(", min_size=1, max_size=4)


@given(st.integers(0, 2**32 - 1), st.data())
def test_answers_iterate_in_text_order(seed, data):
    """Answers iterate in the order of their text, on random bases whose
    constants are renamed to texts that often need quoting. The head
    repeats variables and carries constants."""
    plain = random_base(random.Random(seed), max_facts=60)
    names = sorted({t.value for f in plain.facts() for t in f.args})
    texts = data.draw(st.lists(
        _TEXTS, min_size=len(names), max_size=len(names), unique=True
    ))
    rename = dict(zip(names, texts))
    base = OntologyBase.from_facts(
        Atom(f.predicate, tuple(Term.const(rename[t.value]) for t in f.args))
        for f in plain.facts()
    )
    constants = _constants_by_domain(base)
    preds = sorted(
        p for p in BUILTIN_SCHEMA if base.rows(p) or p in IOB_PREDICATES
    )
    body = [
        _random_atom(data, pred, constants)
        for pred in data.draw(
            st.lists(st.sampled_from(preds), min_size=1, max_size=2)
        )
    ]
    variables = sorted({v for a in body for v in a.variables})
    head_args = st.one_of(_TEXTS.map(Term.const), *(
        [st.sampled_from(variables).map(Term.var)] * 3 if variables else []
    ))
    head = Atom("q", tuple(
        data.draw(st.lists(head_args, min_size=1, max_size=5))
    ))
    report = execute(base, uniform_plan(Query(head, tuple(body)), _NLJ))
    answers = list(report.answers)
    assert answers == sorted(answers, key=str)
    assert len(answers) == len(report.answers)


def _reference_equi_join(base, memo, counters, atom, batch, var_slot):
    """The equi-join probing one substitution at a time, each against a
    hash table keyed by tuples: the reference for `_equi_join`. It has no
    batch limit."""
    own: dict[str, int] = {}
    steps = compile_query(memo, [atom], own)
    shared = [v for v in own if v in var_slot]
    row_key = _getter([own[v] for v in shared])
    row_ext = _getter([i for v, i in own.items() if v not in var_slot])
    subst_key = _getter([var_slot[v] for v in shared])
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    table = {}
    for row in evaluate(base, memo, counters, steps, [()]):
        table.setdefault(row_key(row), []).append(row_ext(row))
    out = []
    for s in batch:
        out.extend(map(s.__add__, table.get(subst_key(s), ())))
    return out


def _expanded_equi_join(base, memo, counters, atom, batch, var_slot):
    """`_equi_join` of a batch of whole substitutions, its deferred
    result expanded to substitutions."""
    joined = _equi_join(
        base, memo, counters, atom, Batch(batch, len(var_slot)), var_slot
    )
    return joined.expanded()


def _assert_joins_agree(base, prefix, atom):
    """`_equi_join` and the reference join `atom` onto the batch of
    `prefix` with the same rows in the same order, the same counters and
    the same slots; each runs on a fresh memo that evaluated the prefix."""
    runs = []
    for join in (_expanded_equi_join, _reference_equi_join):
        memo = MemoTable()
        memo.bind(base)
        counters = Counters()
        var_slot: dict[str, int] = {}
        steps = compile_query(memo, prefix, var_slot)
        batch = evaluate(base, memo, counters, steps, [()])
        out = join(base, memo, counters, atom, batch, var_slot)
        runs.append((out, counters, var_slot))
    assert runs[0] == runs[1], (prefix, atom)


def _batch(base, prefix):
    """The substitutions of `prefix` on a fresh memo."""
    memo = MemoTable()
    memo.bind(base)
    return evaluate(
        base, memo, Counters(), compile_query(memo, prefix, {}), [()]
    )


@given(st.integers(0, 2**32 - 1), st.data())
def test_equi_join_matches_reference_loop(seed, data):
    """Hash join probes set-at-a-time with the rows, order and counters
    of the per-substitution loop, on random queries split at a drawn
    step."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    query = random_query(rng, base)
    body = [query.body[i] for i in data.draw(
        st.permutations(range(len(query.body)))
    )]
    k = data.draw(st.integers(1, len(body) - 1))
    _assert_joins_agree(base, body[:k], body[k])


@pytest.mark.parametrize("prefix, atom, n_shared, binds_new", [
    ("isDProperty(P,vehicle)", "isOntology(O)", 0, True),  # cross product
    ("isClass(C,O)", "isDProperty(P,C)", 1, True),  # scalar key
    ("isOProperty(R,C,E)", "isOProperty(R,C,D)", 2, True),
    ("isClass(C,O)", "isOntology(O)", 1, False),  # semi-join, scalar key
    ("isClass(C,O)", "areClasses(C,O)", 2, False),  # semi-join, IOB
    ("isClass(C,O)", "isOntology(carsOnt)", 0, False),  # ground, true
    ("isClass(C,O)", "isOntology(nowhere)", 0, False),  # ground, false
    ("isClass(C,O)", "subClassOf(D,D)", 0, True),  # repeated variable
    ("isClass(C,O)", "areSubClasses(C,C)", 1, False),
    ("isClass(C,O)", "impOntology(O,O)", 1, False),
    ("isDProperty(traction,C)", "areClasses(C,O)", 1, True),  # IOB
    ("isClass(C,O)", "areSubClasses(D,C)", 1, True),
])
def test_equi_join_probe_shapes(cars_base, prefix, atom, n_shared, binds_new):
    """Each probe shape joins as the per-substitution loop does."""
    prefix, atom = [parse_atom(prefix)], parse_atom(atom)
    bound = set(prefix[0].variables)
    assert len(set(atom.variables) & bound) == n_shared
    assert bool(set(atom.variables) - bound) == binds_new
    batch = _batch(cars_base, prefix)
    assert batch
    _assert_joins_agree(cars_base, prefix, atom)


@given(st.integers(0, 2**32 - 1), st.data())
def test_evaluated_rows_are_distinct(seed, data):
    """An atom's evaluated rows hold no duplicate: EOB facts are a set and
    IOB rows are table keys. The equi-join's semi-join rests on this. EOB
    atoms carry constants and repeated variables; IOB atoms take every
    binding pattern, repeated variables included."""
    base = random_base(random.Random(seed), max_facts=120)
    constants = _constants_by_domain(base)
    atoms = [_random_atom(data, pred, constants) for pred in EOB_PREDICATES]
    for pred in IOB_PREDICATES:
        domains = BUILTIN_SCHEMA[pred].arg_domains
        for pattern in binding_patterns(len(domains)):
            atoms.append(Atom(pred, tuple(
                Term.var(f"V{v}") if v is not None
                else Term.const(data.draw(
                    st.sampled_from(constants[d] or ["absent"])
                ))
                for d, v in zip(domains, pattern)
            )))
    memo = MemoTable()
    memo.bind(base)
    for atom in atoms:
        steps = compile_query(memo, [atom], {})
        rows = evaluate(base, memo, Counters(), steps, [()])
        assert len(set(rows)) == len(rows), atom


def test_serve_star_query_stops_at_the_batch_limit(serve_base, serve_catalog):
    """The serve star query's last hash join would make 2,424,832 rows;
    it is sized before it is built and refused well within a second."""
    plan = optimize(SERVE_Q17, serve_catalog)
    start = time.perf_counter()
    with pytest.raises(EngineLimitError) as err:
        execute(serve_base, plan)
    assert time.perf_counter() - start < 5
    assert "2424832 rows, over the batch limit of 1000000" in str(err.value)


def test_serve_star_query_is_refused_from_its_match_counts(
    serve_base, serve_catalog
):
    """The serve star query's hash joins all key on X, which its first
    step binds, so each is deferred: step 6 is sized from the per-row
    match counts and refused without building the batch of step 5."""
    plan = optimize(SERVE_Q17, serve_catalog)
    tracemalloc.start()
    try:
        with pytest.raises(EngineLimitError) as err:
            execute(serve_base, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "plan step 6: isClass(Z4,X) makes at least 2424832 rows, over the"
        " batch limit of 1000000"
    )
    assert peak < 5_000_000


def test_batch_limit_refuses_a_small_head_over_a_big_batch(
    serve_base, serve_catalog
):
    """The limit is on the batch, not the answers: the serve star query's
    body with a head of one variable has 6 answers, but every variable
    stays in the batch until the head is projected, so it is refused at
    the same step."""
    query = Query(parse_atom("q(X)"), SERVE_Q17.body)
    with pytest.raises(EngineLimitError, match="2424832 rows"):
        execute(serve_base, optimize(query, serve_catalog))


def test_nested_loop_cross_product_is_refused_at_its_exact_rows(
    serve_base, monkeypatch
):
    """A nested-loop step is sized before it is built, so a cross product
    of n rows with n rows is refused naming exactly its n² rows, with a
    limit of one row less."""
    n = len(serve_base.rows("isClass"))
    query = parse_query("q(C,O,D,P) :- isClass(C,O), isClass(D,P).")
    plan = uniform_plan(query, JoinStrategy(JoinMethod.NESTED_LOOP))
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", n * n - 1)
    with pytest.raises(EngineLimitError) as err:
        execute(serve_base, plan)
    assert str(err.value) == (
        f"plan step 2: isClass(D,P) makes at least {n * n} rows, over the"
        f" batch limit of {n * n - 1}"
    )


# The ids keep the names the cases had when a block-nested-loop case
# sat between them as strategy1.
@pytest.mark.parametrize("strategy", [
    JoinStrategy(JoinMethod.NESTED_LOOP),
    JoinStrategy(JoinMethod.HASH_JOIN),
], ids=["strategy0", "strategy2"])
def test_batch_limit_per_strategy(serve_base, monkeypatch, strategy):
    """A plan whose last step makes one row more than the batch limit
    raises, naming the step, its atom and the limit; at the limit it
    returns."""
    query = parse_query("q(C,D,O) :- isClass(C,O), isClass(D,O).")
    plan = uniform_plan(query, strategy)
    rows = len(execute(serve_base, plan).answers)
    assert rows > len(serve_base.rows("isClass")) > 32
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", rows)
    assert len(execute(serve_base, plan).answers) == rows
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", rows - 1)
    with pytest.raises(EngineLimitError, match=(
        rf"plan step 2: isClass\(D,O\) makes at least \d+ rows, over the"
        rf" batch limit of {rows - 1}$"
    )):
        execute(serve_base, plan)


def _eager_rows(head, var_slot, substs):
    """The sorted distinct head projections, as answers were built from
    expanded substitutions before they were sorted on first read."""
    rows: tuple = ()
    if substs:
        slots = [var_slot[t.value] for t in head.args if t.is_var]
        projected = map(_getter(slots), substs)
        if len(set(slots)) < len(var_slot):
            projected = set(projected)
        rows = tuple(sorted(projected))
    return rows


def _eager_atoms(symbols, head, rows):
    """The answer atoms in text order, as `Answers.__iter__` built them
    from rows sorted by id."""
    text = symbols.text
    term = {v: Term.const(text(v)) for row in rows for v in row}
    by_text = sorted(term, key=lambda v: str(term[v]))
    rank = {v: i for i, v in enumerate(by_text)}
    ranked = [term[v] for v in by_text]
    head_consts = tuple(t for t in head.args if not t.is_var)
    n_vars = len(head.args) - len(head_consts)
    var_at = iter(range(n_vars))
    const_at = iter(range(n_vars, len(head.args)))
    arrange = _getter([
        next(var_at) if t.is_var else next(const_at) for t in head.args
    ])
    key = rank.__getitem__
    return [
        Atom(head.predicate, arrange(
            tuple(map(ranked.__getitem__, ranks)) + head_consts
        ))
        for ranks in sorted(tuple(map(key, row)) for row in rows)
    ]


def _assert_answers_match_eager(base, head, var_slot, substs):
    answers = _flat_answers(base.symbols, head, var_slot, substs)
    rows = _eager_rows(head, var_slot, substs)
    atoms = _eager_atoms(base.symbols, head, rows)
    assert len(answers) == len(rows)
    assert list(answers) == atoms
    assert answers == _flat_answers(
        base.symbols, head, var_slot, substs[::-1]
    )
    assert list(answers) == atoms
    assert answers.rows == rows
    assert len(answers) == len(rows)
    assert list(answers) == atoms


@settings(max_examples=200)
@given(st.integers(1, 4), st.data())
def test_answers_read_by_need_match_the_eager_answers(width, data):
    """Answers sorted when first read have the rows, length, equality and
    iteration order of the eager ones, for heads that keep every variable,
    drop some, repeat one or hold constants, and again once the base has
    interned new constants, which sort among the old ones."""
    base = OntologyBase()

    def substs():
        for text in data.draw(st.lists(_TEXTS, min_size=1, max_size=6)):
            base.assert_fact(Atom("isOntology", (Term.const(text),)))
        ids = st.integers(0, len(base.symbols) - 1)
        return data.draw(st.lists(st.tuples(*[ids] * width), unique=True))

    names = [f"V{i}" for i in range(width)]
    var_slot = dict(zip(names, data.draw(st.permutations(range(width)))))
    if data.draw(st.booleans()):
        args = data.draw(st.permutations(names))
    else:
        args = data.draw(st.lists(st.sampled_from(names), unique=True))
    if args and data.draw(st.booleans()):
        args.append(data.draw(st.sampled_from(args)))
    for _ in range(data.draw(st.integers(0 if args else 1, 2))):
        args.insert(data.draw(st.integers(0, len(args))), "'k'")
    head = Atom("q", tuple(
        Term.const(a) if a == "'k'" else Term.var(a) for a in args
    ))
    first = substs()
    _assert_answers_match_eager(base, head, var_slot, first)
    second = substs()
    _assert_answers_match_eager(base, head, var_slot, first)
    _assert_answers_match_eager(base, head, var_slot, second)


def _refuse_terms(patch):
    """Make building any `Term` fail under `patch`."""

    def refuse(*_args):
        raise AssertionError("Term built")

    patch.setattr(Term, "__init__", refuse)


def test_answers_and_facts_share_the_pooled_terms():
    """Two iterations of one `Answers`, and the base's facts, hold one
    and the same `Term` object per constant."""
    base = random_base(random.Random(7))
    answers = solve(base, parse_atom("areSubClasses(C,D)")).answers
    first, second = list(answers), list(answers)
    assert first == second and len(first) > 1
    pooled: dict[str, Term] = {}
    for fact in base.facts():
        for t in fact.args:
            assert pooled.setdefault(t.value, t) is t
    for a, b in zip(first, second):
        for s, t in zip(a.args, b.args):
            assert s is t is pooled[s.value]


def test_the_pool_holds_the_loaded_terms(monkeypatch):
    """Loading a base with `from_facts` and `assert_fact` builds no
    `Term`: each id's pool entry is the `Term` object of the first fact
    that held its constant."""
    rng = random.Random(7)
    facts = [
        Atom(f.predicate, [Term.const(t.value) for t in f.args])
        for f in random_base(rng).facts()
    ]
    more = [parse_atom(f"isOntology({o})") for o in ("new1", "'New 2'")]
    with monkeypatch.context() as patch:
        _refuse_terms(patch)
        base = OntologyBase.from_facts(facts)
        for fact in more:
            base.assert_fact(fact)
    first: dict[str, Term] = {}
    for fact in facts + more:
        for t in fact.args:
            first.setdefault(t.value, t)
    assert len(base.symbols) == len(first)
    assert all(map(is_, base.symbols.terms, first.values()))


def test_iterating_answers_prints_only_their_ids(monkeypatch):
    """Iterating answers builds no `Term` and makes the printed text of
    the ids their rows hold and of no other; a second iteration, and
    the facts, make none."""
    base = random_base(random.Random(7))
    answers = solve(base, parse_atom("areSubClasses(C,D)")).answers
    printed = base.symbols.printed
    assert not printed
    held = {cid for row in answers.rows for cid in row}
    with monkeypatch.context() as patch:
        _refuse_terms(patch)
        first = list(answers)
        texts = dict(printed)
        assert list(answers) == first
        assert len(list(base.facts())) == len(base)
    assert len(first) > 1 and len(held) < len(base.symbols)
    assert texts.keys() == printed.keys() == held
    assert all(printed[c] is texts[c] for c in held)
    assert texts == {c: str(base.symbols.terms[c]) for c in held}


def test_new_constants_extend_the_pool(monkeypatch):
    """Facts that add new constants append their own `Term`s to the
    pool, keep the earlier entries and printed texts as the same
    objects, and the new constants sort among the old ones."""
    base = OntologyBase.from_facts(
        parse_atom(f"isOntology({o})") for o in ("b", "'Zed'", "d")
    )
    head = parse_atom("isOntology(O)")
    assert [str(a) for a in solve(base, head).answers] == [
        "isOntology('Zed')", "isOntology(b)", "isOntology(d)",
    ]
    terms = list(base.symbols.terms)
    texts = dict(base.symbols.printed)
    new = [parse_atom(f"isOntology({o})") for o in ("c", "'a b'", "dd")]
    with monkeypatch.context() as patch:
        _refuse_terms(patch)
        for fact in new:
            base.assert_fact(fact)
    answers = solve(base, head).answers
    with monkeypatch.context() as patch:
        _refuse_terms(patch)
        got = list(answers)
    pool = base.symbols.terms
    assert len(pool) == 6
    assert all(map(is_, pool, terms + [fact.args[0] for fact in new]))
    assert all(base.symbols.printed[c] is t for c, t in texts.items())
    assert got == _eager_atoms(base.symbols, head, answers.rows)
    assert [str(a) for a in got] == [
        "isOntology('Zed')", "isOntology('a b')", "isOntology(b)",
        "isOntology(c)", "isOntology(d)", "isOntology(dd)",
    ]


def _eager_equi_join(base, memo, counters, atom, batch, var_slot):
    """`_equi_join` as it was before steps were deferred: it builds the
    joined batch of every step."""
    own: dict[str, int] = {}
    steps = compile_query(memo, [atom], own)
    shared = [v for v in own if v in var_slot]
    ext = [i for v, i in own.items() if v not in var_slot]
    if len(shared) == 1:
        row_key = itemgetter(own[shared[0]])
        subst_key = itemgetter(var_slot[shared[0]])
    else:
        row_key = _getter([own[v] for v in shared])
        subst_key = _getter([var_slot[v] for v in shared])
    row_ext = _getter(ext)
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    rows = evaluate(base, memo, counters, steps, [()])
    if not ext:
        has = set(map(row_key, rows)).__contains__
        return list(compress(batch, map(has, map(subst_key, batch))))
    table: dict[object, list[tuple]] = {}
    for row in rows:
        table.setdefault(row_key(row), []).append(row_ext(row))
    matches = list(map(table.get, map(subst_key, batch), repeat(())))
    check_batch(atom, sum(map(len, matches)))
    return [s + r for s, rs in zip(batch, matches) for r in rs]


def _eager_execute(base, plan):
    """`execute` as it was before steps were deferred: the reference for
    deferred steps."""
    memo = MemoTable()
    memo.bind(base)
    total = Counters()
    per_step: list[Counters] = []
    var_slot: dict[str, int] = {}
    batch: list[tuple] = [()]
    try:
        for step, (atom, strategy) in enumerate(
            zip(plan.atoms, (_NLJ, *plan.strategies)), start=1
        ):
            if not batch:
                per_step.append(Counters())
                continue
            inferred0, eob0 = total.inferred_facts, total.eob_accesses
            if strategy.method is JoinMethod.NESTED_LOOP:
                steps = compile_query(memo, [atom], var_slot)
                batch = evaluate(base, memo, total, steps, batch)
            else:
                batch = _eager_equi_join(
                    base, memo, total, atom, batch, var_slot
                )
            per_step.append(Counters(
                total.inferred_facts - inferred0, total.eob_accesses - eob0
            ))
    except EngineLimitError as err:
        err.args = (f"plan step {step}: {err}",)
        raise
    return EvaluationResult(
        _flat_answers(base.symbols, plan.query.head, var_slot, batch),
        total.inferred_facts, total.eob_accesses, per_step,
    )


# Predicate positions by the domain of their variables; a value position
# takes individual variables, as in `_DOMAIN_VARS`.
_VAR_DOMAIN = {d: d for d in ArgDomain} | {
    ArgDomain.VALUE: ArgDomain.INDIVIDUAL
}
_POSITIONS = {
    d: [
        (pred, i)
        for pred, schema in BUILTIN_SCHEMA.items()
        for i, arg in enumerate(schema.arg_domains)
        if _VAR_DOMAIN[arg] is d
    ]
    for d in set(_VAR_DOMAIN.values())
}


@st.composite
def _shaped_plans(draw):
    """(seed, plan) over `random_base(seed)`: a body of 3-6 atoms that
    each share a variable with the one before, around one center variable
    (a star) or through a new variable of each atom (a chain), in a random
    order under random per-step strategies. Other arguments are new
    variables, variables of earlier atoms or constants, so steps join on
    prefix and deferred slots, bind nothing new and cross."""
    seed = draw(st.integers(0, 2**32 - 1))
    constants = _constants_by_domain(random_base(random.Random(seed), 120))
    shape = draw(st.sampled_from(["star", "chain"]))
    n = draw(st.integers(3, 6))
    link = "X"
    domain = draw(st.sampled_from(sorted(_POSITIONS, key=str)))
    seen = {d: [] for d in _POSITIONS}
    body = []
    for k in range(n):
        pred, at = draw(st.sampled_from(_POSITIONS[domain]))
        args = []
        for i, arg in enumerate(BUILTIN_SCHEMA[pred].arg_domains):
            kind = draw(st.integers(0, 9))
            var_domain = _VAR_DOMAIN[arg]
            if i == at:
                term = Term.var(link)
            elif kind < 3 or kind < 8 and not seen[var_domain]:
                term = Term.var(f"V{k}{i}")
            elif kind < 8:
                term = Term.var(draw(st.sampled_from(seen[var_domain])))
            else:
                term = Term.const(draw(
                    st.sampled_from(constants[arg] or ["absent"])
                ))
            if term.is_var and term.value not in seen[var_domain]:
                seen[var_domain].append(term.value)
            args.append(term)
        body.append(Atom(pred, tuple(args)))
        fresh = [
            (t.value, _VAR_DOMAIN[d])
            for t, d in zip(args, BUILTIN_SCHEMA[pred].arg_domains)
            if t.is_var and t.value != link
        ]
        if shape == "chain" and fresh:
            link, domain = draw(st.sampled_from(fresh))
    variables = sorted({v for a in body for v in a.variables})
    query = Query(Atom("q", tuple(map(Term.var, variables))), tuple(body))
    order = tuple(draw(st.permutations(range(n))))
    # hash joins, the steps that are deferred, in about half the draws
    strategy = st.sampled_from(_ALL_STRATEGIES)
    strategies = tuple(
        draw(st.lists(strategy, min_size=n - 1, max_size=n - 1))
    )
    return seed, Plan(query, order, strategies, None)


def _outcome(run, base, plan):
    """Answer rows and total and per-step counters, or the refusal."""
    try:
        result = run(base, plan)
    except EngineLimitError as err:
        return str(err)
    return (
        result.answers.rows, result.inferred_fact_count,
        result.eob_access_count, result.per_step,
    )


# On `random_base(0)` no class of o0 has a datatype property: step 3
# leaves no substitution, though it would keep prefix rows for o0's
# classes if deferred step 2 kept the rows that match nothing. Step 4
# must not run.
_EMPTIED_BY_A_SEMI_JOIN = Plan(parse_query(
    "q(X,O,P,Q) :- isClass(X,O), isDProperty(P,X), isClass(X,o0),"
    " isOntology(Q)."
), (0, 1, 2, 3), (_HASH,) * 3, None)

# On `random_base(0)` step 3 keeps 2 prefix rows that stand for 4
# substitutions, and step 4, a cross product, is deferred on them.
_SIZED_AFTER_A_SEMI_JOIN = Plan(parse_query(
    "q(X,O,I,Q) :- isClass(X,O), areIndividuals(I,X), isClass(X,o0),"
    " isOntology(Q)."
), (0, 1, 2, 3), (_HASH,) * 3, None)

# Three deferred joins on X, most rows matching several individuals in
# each: 270 substitutions are built from match lists in one expansion.
_THREE_DEFERRED_JOINS = Plan(parse_query(
    "q(X,O,I,J,K) :- isClass(X,O), areIndividuals(I,X),"
    " areIndividuals(J,X), areIndividuals(K,X)."
), (0, 1, 2, 3), (_HASH,) * 3, None)


@example((0, _EMPTIED_BY_A_SEMI_JOIN), 1_000_000)
@example((0, _SIZED_AFTER_A_SEMI_JOIN), 1_000_000)
@example((0, _THREE_DEFERRED_JOINS), 1_000_000)
@given(_shaped_plans(), st.integers(1, 5000))
def test_deferred_steps_match_the_eager_executor(case, limit):
    """Deferred equi-joins give the answers, total and per-step counters
    and refusal text of the executor that builds every step, on star and
    chain bodies under a small batch limit."""
    seed, plan = case
    base = random_base(random.Random(seed), max_facts=120)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "MAX_BATCH_ROWS", limit)
        deferred = _outcome(execute, base, plan)
        eager = _outcome(_eager_execute, base, plan)
    assert deferred == eager, plan
