import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dobquery import (
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
    uniform_plan,
)
from dobquery.engine import Counters, compile_query, evaluate
from dobquery.executor import _equi_join
from dobquery.model import (
    BUILTIN_SCHEMA, EOB_PREDICATES, IOB_PREDICATES, ArgDomain, Atom, Query,
    Term,
)
from dobquery.optimizer import plan_for_order
from dobquery.store import OntologyBase, SymbolTable, _getter
from conftest import (
    binding_patterns, execute_all_strategies, random_base, random_query,
    refuse_text,
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
    assert report.answers == []
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


def test_single_block_bnlj_equals_hash_join_counters(cars_base):
    q = parse_query(CARS_Q)
    big_block = JoinStrategy(JoinMethod.BLOCK_NESTED_LOOP, 1000)
    hash_join = JoinStrategy(JoinMethod.HASH_JOIN)
    bnlj_report = execute(cars_base, uniform_plan(q, big_block))
    hash_report = execute(cars_base, uniform_plan(q, hash_join))
    for a, b in zip(bnlj_report.per_step, hash_report.per_step):
        assert (a.inferred_facts, a.eob_accesses) == (
            b.inferred_facts, b.eob_accesses
        )


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


def _bnlj(size):
    return JoinStrategy(JoinMethod.BLOCK_NESTED_LOOP, size)


@pytest.mark.parametrize("text, strategy, cost, steps", [
    (CARS_Q, _NLJ, 29, [(14, 12), (0, 3)]),
    (CARS_Q, _bnlj(1), 38, [(14, 12), (0, 12)]),
    (CARS_Q, _bnlj(2), 32, [(14, 12), (0, 6)]),
    (CARS_Q, _HASH, 27, [(14, 12), (0, 1)]),
    (CARS_Q_PRIME, _NLJ, 12, [(0, 1), (5, 6)]),
    (_CROSS_Q, _bnlj(1), 8, [(0, 2), (0, 6)]),
    (_CROSS_Q, _HASH, 5, [(0, 2), (0, 3)]),
])
def test_pinned_step_counters_on_cars(cars_base, text, strategy, cost, steps):
    """(inferred facts, EOB accesses) per step: nested loop probes once per
    incoming substitution, block nested loop once per block, hash once."""
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
    (9000, (20, 257)),
    (9011, (37, 389)),
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


_ALL_STRATEGIES = [_NLJ, _bnlj(1), _bnlj(2), _bnlj(32), _HASH]

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
    built, and so do two `solve` calls; each report's answers equal their
    materialized list."""
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
        assert report.answers == list(report.answers)
    # another head: the rows agree, the atoms do not
    other = execute(cars_base, uniform_plan(
        parse_query("r(O):-areClasses(C,O),isDProperty(traction,C)."), _NLJ
    ))
    assert other.answers.rows == first.answers.rows
    assert other.answers != first.answers


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


def _reference_equi_join(
    base, memo, counters, atom, block_size, batch, var_slot
):
    """The equi-join probing one substitution at a time, each against a
    hash table keyed by tuples: the reference for `_equi_join`."""
    own: dict[str, int] = {}
    steps = compile_query(memo, [atom], own)
    shared = [v for v in own if v in var_slot]
    row_key = _getter([own[v] for v in shared])
    row_ext = _getter([i for v, i in own.items() if v not in var_slot])
    subst_key = _getter([var_slot[v] for v in shared])
    for v in own:
        var_slot.setdefault(v, len(var_slot))
    table = None
    out = []
    for start in range(0, len(batch), block_size):
        rows = evaluate(base, memo, counters, steps, [()])
        if table is None:
            table = {}
            for row in rows:
                table.setdefault(row_key(row), []).append(row_ext(row))
        for s in batch[start : start + block_size]:
            out.extend(map(s.__add__, table.get(subst_key(s), ())))
    return out


def _assert_joins_agree(base, prefix, atom, block_sizes):
    """For each block size, `_equi_join` and the reference join `atom`
    onto the batch of `prefix` with the same rows in the same order, the
    same counters and the same slots; each runs on a fresh memo that
    evaluated the prefix."""
    for size in block_sizes:
        runs = []
        for join in (_equi_join, _reference_equi_join):
            memo = MemoTable()
            memo.bind(base)
            counters = Counters()
            var_slot: dict[str, int] = {}
            steps = compile_query(memo, prefix, var_slot)
            batch = evaluate(base, memo, counters, steps, [()])
            out = join(base, memo, counters, atom, size, batch, var_slot)
            runs.append((out, counters, var_slot))
        assert runs[0] == runs[1], (prefix, atom, size)


def _batch(base, prefix):
    """The substitutions of `prefix` on a fresh memo."""
    memo = MemoTable()
    memo.bind(base)
    return evaluate(
        base, memo, Counters(), compile_query(memo, prefix, {}), [()]
    )


def _block_sizes(batch):
    """1, 2, 32, the whole batch (hash join's one block) and more."""
    return [1, 2, 32, max(len(batch), 1), len(batch) + 1]


@given(st.integers(0, 2**32 - 1), st.data())
def test_equi_join_matches_reference_loop(seed, data):
    """Block nested loop and hash join (one block of the whole batch)
    probe set-at-a-time with the rows, order and counters of the
    per-substitution loop, on random queries split at a drawn step."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=120)
    query = random_query(rng, base)
    body = [query.body[i] for i in data.draw(
        st.permutations(range(len(query.body)))
    )]
    k = data.draw(st.integers(1, len(body) - 1))
    sizes = _block_sizes(_batch(base, body[:k]))
    _assert_joins_agree(
        base, body[:k], body[k], [data.draw(st.sampled_from(sizes))]
    )


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
    """Each probe shape joins as the per-substitution loop does, at every
    block size from one substitution to more than the batch."""
    prefix, atom = [parse_atom(prefix)], parse_atom(atom)
    bound = set(prefix[0].variables)
    assert len(set(atom.variables) & bound) == n_shared
    assert bool(set(atom.variables) - bound) == binds_new
    batch = _batch(cars_base, prefix)
    assert batch
    _assert_joins_agree(cars_base, prefix, atom, _block_sizes(batch))


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
