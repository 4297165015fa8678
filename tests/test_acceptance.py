"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import math
import random
import time
from pathlib import Path

import pytest

from dobquery import (
    JoinMethod,
    JoinStrategy,
    OntologyBase,
    SamplingConfig,
    SynthConfig,
    adaptive_sample,
    build_catalog,
    compare_strategy_sets,
    exhaustive_orderings,
    generate_synthetic,
    optimize,
    parse_atom,
    parse_owl,
    parse_query,
    run_correlation,
    run_ratio,
    solve,
    translate_documents,
    uniform_plan,
)
from dobquery.executor import execute
from dobquery.model import Atom, BUILTIN_SCHEMA, IOB_PREDICATES, Query, Term
from dobquery.stats import BindingPattern
from conftest import (
    bottom_up_oracle,
    execute_all_strategies,
    random_base,
    random_catalog,
    random_catalog_query,
)

DATA = Path(__file__).parent / "data"
NLJ = (JoinStrategy(JoinMethod.NESTED_LOOP),)

CORPUS_SAMPLING = SamplingConfig(d=0.2, p=0.7, k=7, seed=123)


def _report(num, text, elapsed):
    print(f"\nACCEPTANCE {num} PASS: {text} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def corpus():
    """10 synthetic ontologies x 6 three-subgoal queries, with catalogs."""
    bases, queries = [], []
    for seed in range(10):
        base, qs = generate_synthetic(SynthConfig(seed=seed))
        bases.append(base)
        queries.append(qs)
    catalogs = [build_catalog(b, CORPUS_SAMPLING) for b in bases]
    return bases, queries, catalogs


def test_criterion_1_motivating_example():
    t0 = time.perf_counter()
    docs = [
        parse_owl((DATA / name).read_text(), name)
        for name in ("carsOnt.owl", "source1.owl", "source2.owl")
    ]
    base = OntologyBase.from_facts(translate_documents(docs))

    result = solve(base, parse_atom("areClasses(C,O)"))
    assert len(result.answers) == 12

    expected = {"q(carsOnt)", "q(source1)", "q(source2)"}
    for text in (
        "q(O):-areClasses(C,O),isDProperty(traction,C).",
        "q(O):-isDProperty(traction,C),areClasses(C,O).",
    ):
        query = parse_query(text)
        for method in JoinMethod:
            report = execute(base, uniform_plan(query, JoinStrategy(method)))
            assert {str(a) for a in report.answers} == expected

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "cars example: 12 inferred classes; q answers "
               "{carsOnt, source1, source2} under every strategy and "
               "ordering", elapsed)


def test_criterion_2_engine_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for trial in range(100):
        base = random_base(rng, max_facts=200)
        oracle = bottom_up_oracle(base)
        for pred in IOB_PREDICATES:
            arity = BUILTIN_SCHEMA[pred].arity
            atom = parse_atom(
                f"{pred}({','.join('XYZ'[i] for i in range(arity))})"
            )
            got = {str(a) for a in solve(base, atom).answers}
            want = {str(a) for a in oracle if a.predicate == pred}
            assert got == want, f"trial {trial}, {pred}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, "top-down answers equal the bottom-up fixpoint on 100 "
               "randomized bases for all intensional predicates", elapsed)


def test_criterion_3_estimator_guarantee():
    t0 = time.perf_counter()
    rates = {}
    for pred in ("areClasses", "areIndividuals"):
        hits = trials = 0
        for b in range(20):
            base, _ = generate_synthetic(SynthConfig(seed=3000 + b))
            exact = sum(
                1 for a in bottom_up_oracle(base) if a.predicate == pred
            )
            for seed in range(10):
                cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=seed)
                run = adaptive_sample(
                    base, pred, BindingPattern.free(2), "cardinality",
                    cfg,
                )
                estimate = run.mean * run.n
                ok = (
                    abs(estimate - exact) <= 0.2 * exact
                    if exact
                    else estimate == 0.0
                )
                hits += ok
                trials += 1
        assert trials == 200
        rates[pred] = hits / trials
        assert rates[pred] >= 0.60, f"{pred}: {rates[pred]:.2%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(3, "d=0.2,p=0.7,k=7 estimates within 20% relative error in "
               f"{rates['areClasses']:.0%} (areClasses) and "
               f"{rates['areIndividuals']:.0%} (areIndividuals) of 200 runs "
               "(>= 60% required)", elapsed)


def test_criterion_4_optimizer_exactness():
    t0 = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        catalog = random_catalog(rng)
        query = random_catalog_query(rng)
        if query is None:
            continue
        plan = optimize(query, catalog)
        best = min(
            o.estimate.cost for o in exhaustive_orderings(query, catalog)
        )
        assert plan.estimate.cost == pytest.approx(best, rel=1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, "dynamic-programming plan cost equals the exhaustive minimum "
               "on 50 random queries with <= 5 subgoals", elapsed)


def test_criterion_5_correlation_replication(corpus):
    t0 = time.perf_counter()
    bases, queries, catalogs = corpus
    report = run_correlation(
        bases, queries, CORPUS_SAMPLING, NLJ, catalogs=catalogs
    )
    assert len(report.rows) == 10 * 6 * math.factorial(3)
    assert report.log_correlation is not None
    assert report.log_correlation >= 0.75
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    raw = "undefined" if report.correlation is None else f"{report.correlation:.3f}"
    _report(5, "estimated-vs-actual cost correlation over 360 nested-loop "
               f"evaluations: {report.log_correlation:.3f} log-scale >= 0.75 "
               f"(raw Pearson {raw})", elapsed)


def test_criterion_6_ratio_replication(corpus):
    t0 = time.perf_counter()
    bases, queries, catalogs = corpus
    report = run_ratio(bases, queries, CORPUS_SAMPLING, NLJ, catalogs=catalogs)
    ratios = [r.opt_worst_ratio for r in report.ratios]
    assert len(ratios) == 60
    under_tenth = sum(r < 0.10 for r in ratios)
    assert under_tenth >= 0.5 * len(ratios), f"{under_tenth}/60"

    comparison = compare_strategy_sets(
        bases, queries, CORPUS_SAMPLING, catalogs=catalogs
    )
    assert (
        comparison["combined_mean_ratio"] <= comparison["nlj_mean_ratio"]
    ), comparison
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report(6, f"optimal/worst < 0.10 for {under_tenth}/60 queries; "
               f"nested-loop-or-hash mean ratio "
               f"{comparison['combined_mean_ratio']:.3f} <= nested-loop mean "
               f"{comparison['nlj_mean_ratio']:.3f}", elapsed)


def test_criterion_7_strategy_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(777)
    preds = ["isClass", "subClassOf", "isIndividual", "isStatement",
             "areClasses", "areSubClasses", "areIndividuals", "areStatements"]
    checked = 0
    while checked < 50:
        base = random_base(rng, max_facts=120)
        n = rng.randint(2, 3)
        var_pool = ["X", "Y", "Z", "W"]
        body = []
        for _ in range(n):
            name = rng.choice(preds)
            arity = BUILTIN_SCHEMA[name].arity
            body.append(
                Atom(name, tuple(
                    Term.var(rng.choice(var_pool)) for _ in range(arity)
                ))
            )
        body_vars = {v for a in body for v in a.variables}
        query = Query(
            Atom("q", tuple(Term.var(v) for v in sorted(body_vars))),
            tuple(body),
        )
        order = tuple(rng.sample(range(n), n))
        reports = execute_all_strategies(base, query, order=order)
        answer_sets = {
            frozenset(str(a) for a in r.answers) for r in reports.values()
        }
        assert len(answer_sets) == 1
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, "nested-loop and hash join return identical answer sets "
               "on 50 random plans", elapsed)


def test_criterion_8_real_world_substitution_note():
    print(
        "\nACCEPTANCE 8 NOTE: full-scale real-world ontology correlations "
        "(reported 0.96/0.98/0.94/0.92 and 0.62) are not reproducible at "
        "desk scale; criteria 5-6 on synthetic corpora stand in for them."
    )
