import gc
import math
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dobquery import (
    EngineLimitError,
    JoinMethod,
    JoinStrategy,
    SamplingConfig,
    SynthConfig,
    build_catalog,
    default_strategies,
    execute,
    generate_synthetic,
    optimize,
    pearson,
    run_correlation,
    run_ratio,
)
from dobquery.bench import (
    BenchError,
    _median_low,
    write_correlation_csv,
    write_ratio_csv,
)
from dobquery import engine, executor
from dobquery.engine import Answers
from dobquery.executor import shared_prefixes
from dobquery.optimizer import exhaustive_orderings
from dobquery.store import SymbolTable
from conftest import (
    random_base, random_catalog, random_catalog_query, random_query,
    refuse_text,
)

NLJ = (JoinStrategy(JoinMethod.NESTED_LOOP),)


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)


def test_pearson_closed_form_value():
    # hand computation: covariance 4, variances 5 and 5 -> r = 0.8
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_zero_variance_is_undefined():
    assert pearson([5, 5, 5], [1, 2, 3]) is None
    assert pearson([1, 2, 3], [7, 7, 7]) is None


def test_pearson_rejects_mismatched_lengths():
    with pytest.raises(BenchError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(BenchError):
        pearson([1], [1])


def test_median_low_is_lower_middle():
    assert _median_low([4, 1, 3, 2]) == 2
    assert _median_low([5, 1, 9]) == 5


@pytest.fixture(scope="module")
def tiny_corpus():
    base, queries = generate_synthetic(SynthConfig(seed=6))
    return [base], [queries[:2]]


def test_run_correlation_row_shape(tiny_corpus):
    bases, queries = tiny_corpus
    report = run_correlation(bases, queries, SamplingConfig(seed=1), NLJ)
    assert len(report.rows) == 2 * math.factorial(3)
    assert report.correlation is not None
    assert report.log_correlation is not None
    assert -1.0 <= report.log_correlation <= 1.0
    indices = [r.ordering_index for r in report.rows[:6]]
    assert indices == list(range(6))


def test_run_ratio_fields_consistent(tiny_corpus):
    bases, queries = tiny_corpus
    config = SamplingConfig(seed=1)
    catalogs = [build_catalog(b, config) for b in bases]
    for strategies in (NLJ, default_strategies()):
        report = run_ratio(
            bases, queries, config, strategies, catalogs=catalogs
        )
        assert len(report.ratios) == 2
        chosen = [
            execute(base, optimize(query, catalog, strategies)).actual_cost
            for base, qs, catalog in zip(bases, queries, catalogs)
            for query in qs
        ]
        for row, optimal in zip(report.ratios, chosen, strict=True):
            actuals = [
                r.actual_cost for r in report.rows
                if r.query_id == row.query_id
            ]
            assert row.worst_cost == max(actuals)
            assert row.median_cost == _median_low(actuals)
            if row.worst_cost:
                assert row.opt_worst_ratio == pytest.approx(
                    row.optimal_cost / row.worst_cost
                )
            # the optimizer's plan is one of the evaluated orderings
            assert min(actuals) <= row.optimal_cost <= max(actuals)
            assert row.optimal_cost == optimal


def test_reports_reproducible(tiny_corpus):
    bases, queries = tiny_corpus
    a = run_correlation(bases, queries, SamplingConfig(seed=1), NLJ)
    b = run_correlation(bases, queries, SamplingConfig(seed=1), NLJ)
    assert a.correlation == b.correlation
    assert [
        (r.query_id, r.order, r.estimated_cost, r.actual_cost) for r in a.rows
    ] == [
        (r.query_id, r.order, r.estimated_cost, r.actual_cost) for r in b.rows
    ]


def test_csv_outputs(tiny_corpus, tmp_path):
    bases, queries = tiny_corpus
    corr = run_correlation(bases, queries, SamplingConfig(seed=1), NLJ)
    ratio = run_ratio(bases, queries, SamplingConfig(seed=1), NLJ)

    corr_path = tmp_path / "corr.csv"
    write_correlation_csv(corr, corr_path)
    lines = corr_path.read_text().strip().splitlines()
    assert lines[0] == (
        "base,query,ordering_index,ordering,estimated_cost,actual_cost"
    )
    assert len(lines) == 1 + len(corr.rows)

    ratio_path = tmp_path / "ratio.csv"
    write_ratio_csv(ratio, ratio_path)
    lines = ratio_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(ratio.ratios)

    # bit-for-bit reproducibility of report files
    corr_path2 = tmp_path / "corr2.csv"
    write_correlation_csv(
        run_correlation(bases, queries, SamplingConfig(seed=1), NLJ), corr_path2
    )
    assert corr_path.read_bytes() == corr_path2.read_bytes()


@pytest.mark.parametrize("experiment", [run_ratio, run_correlation])
def test_experiments_refuse_lists_of_other_lengths(tiny_corpus, experiment):
    bases, queries = tiny_corpus
    config = SamplingConfig(seed=1)
    with pytest.raises(
        BenchError, match="^bases and queries differ in length: 1 and 0$"
    ):
        experiment(bases, [], config)
    catalogs = [build_catalog(bases[0], config)]
    with pytest.raises(
        BenchError, match="^bases and catalogs differ in length: 2 and 1$"
    ):
        experiment(bases * 2, queries * 2, config, catalogs=catalogs)


def test_catalogs_can_be_prebuilt(tiny_corpus):
    bases, queries = tiny_corpus
    catalogs = [build_catalog(b, SamplingConfig(seed=1)) for b in bases]
    with_cat = run_correlation(
        bases, queries, SamplingConfig(seed=1), NLJ, catalogs=catalogs
    )
    without = run_correlation(bases, queries, SamplingConfig(seed=1), NLJ)
    assert with_cat.correlation == without.correlation


def test_experiments_build_no_text(tiny_corpus, monkeypatch):
    """The harness reads only counters, so no answer becomes text."""
    bases, queries = tiny_corpus
    catalogs = [build_catalog(b, SamplingConfig(seed=1)) for b in bases]
    monkeypatch.setattr(SymbolTable, "text", refuse_text)
    ratio = run_ratio(
        bases, queries, SamplingConfig(seed=1), catalogs=catalogs
    )
    corr = run_correlation(
        bases, queries, SamplingConfig(seed=1), catalogs=catalogs
    )
    assert len(ratio.ratios) == 2
    assert len(corr.rows) == 2 * math.factorial(3)


def _refuse_answers(*_args):
    raise AssertionError("answers read")


def test_experiments_read_no_answers(tiny_corpus, monkeypatch):
    """The harness and its catalogs count answers but never sort or
    iterate them."""
    bases, queries = tiny_corpus
    monkeypatch.setattr(Answers, "rows", property(_refuse_answers))
    monkeypatch.setattr(Answers, "__iter__", _refuse_answers)
    ratio = run_ratio(bases, queries, SamplingConfig(seed=1))
    corr = run_correlation(bases, queries, SamplingConfig(seed=1))
    assert len(ratio.ratios) == 2
    assert len(corr.rows) == 2 * math.factorial(3)


def _outcome(base, plan):
    """Answer rows and total and per-step counters, or the refusal."""
    try:
        result = execute(base, plan)
    except EngineLimitError as err:
        return str(err)
    return (
        result.answers.rows, result.actual_cost, result.inferred_fact_count,
        result.eob_access_count, result.per_step,
    )


def _memo_state(memo):
    """A memo's tables in creation order, unseen constants and entries."""
    return list(memo.tables.items()), dict(memo._unseen), memo._entries


@given(
    st.integers(0, 2**32 - 1), st.booleans(),
    st.sampled_from([1_000_000, 1, 5, 20, 60]),
    st.sampled_from([1_000_000, 10, 40]),
)
def test_shared_prefixes_match_fresh_executions(
    seed, unseen, batch_limit, entry_limit
):
    """Every ordering a sweep resumes from the previous one has the
    answer rows, total and per-step counters, or the refusal text, of a
    fresh execution of its plan, and leaves the memo a fresh execution
    leaves, on random (often cyclic) bases. Queries have 2-4 subgoals;
    half carry constants the base has never seen, and low limits refuse
    some orderings mid-plan."""
    rng = random.Random(seed)
    base = random_base(rng, max_facts=80)
    query = random_catalog_query(rng, 4) if unseen else None
    if query is None:
        query = random_query(rng, base)
    plans = exhaustive_orderings(query, random_catalog(rng))
    memos = []

    class Memo(executor.MemoTable):
        def __init__(self):
            super().__init__()
            memos.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "MAX_BATCH_ROWS", batch_limit)
        patch.setattr(engine, "MAX_TABLE_ENTRIES", entry_limit)
        patch.setattr(executor, "MemoTable", Memo)
        fresh = [(_outcome(base, p), _memo_state(memos[-1])) for p in plans]
        with shared_prefixes():
            shared = [
                (_outcome(base, p), _memo_state(memos[-1])) for p in plans
            ]
    assert shared == fresh


def test_ordering_after_a_refused_one_is_exact(tiny_corpus, monkeypatch):
    """An ordering refused at its second step leaves no state: the next
    ordering, which shares its first step, is exact."""
    bases, queries = tiny_corpus
    query = queries[0][0]
    plans = exhaustive_orderings(
        query, build_catalog(bases[0], SamplingConfig(seed=1))
    )
    monkeypatch.setattr(engine, "MAX_BATCH_ROWS", 200)
    fresh = [_outcome(bases[0], plan) for plan in plans]
    assert fresh[2].startswith("plan step 2: ")
    assert plans[3].order[0] == plans[2].order[0]
    assert not isinstance(fresh[3], str)
    with shared_prefixes():
        assert [_outcome(bases[0], plan) for plan in plans] == fresh


@pytest.fixture
def made(monkeypatch):
    """Weak references to each memo and batch `execute` makes from now."""
    refs = {"memos": [], "batches": []}

    class Memo(executor.MemoTable):
        def __init__(self):
            super().__init__()
            refs["memos"].append(weakref.ref(self))

    class Batch(executor._Batch):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            refs["batches"].append(weakref.ref(self))

    monkeypatch.setattr(executor, "MemoTable", Memo)
    monkeypatch.setattr(executor, "_Batch", Batch)
    return refs


def _alive(refs) -> list[int]:
    """The positions in `refs` of the objects still alive."""
    gc.collect()
    return [i for i, r in enumerate(refs) if r() is not None]


def test_nothing_is_kept_outside_the_scope(tiny_corpus, made):
    bases, queries = tiny_corpus
    run_ratio(bases, queries, SamplingConfig(seed=1))
    # one memo per query's sweep, and steps shared within it
    assert len(made["memos"]) == 2
    assert _alive(made["memos"]) == [] and _alive(made["batches"]) == []
    execute(bases[0], optimize(
        queries[0][0], build_catalog(bases[0], SamplingConfig(seed=1))
    ))
    assert len(made["memos"]) == 3
    assert _alive(made["memos"]) == [] and _alive(made["batches"]) == []


def test_another_base_or_query_drops_the_kept_state(tiny_corpus, made):
    bases, queries = tiny_corpus
    catalog = build_catalog(bases[0], SamplingConfig(seed=1))
    plan_a, plan_b = (optimize(q, catalog) for q in queries[0])
    other = generate_synthetic(SynthConfig(seed=7))[0]
    runs = [(bases[0], plan_a), (bases[0], plan_b), (other, plan_b),
            (other, plan_b)]
    fresh = [_outcome(base, plan) for base, plan in runs]
    made["memos"].clear()
    got, kept = [], []
    with shared_prefixes():
        for base, plan in runs:
            got.append(_outcome(base, plan))
            kept.append(_alive(made["memos"]))
    # a new query, then a new base, start afresh; the same base and plan
    # share every step
    assert kept == [[0], [1], [2], [2]]
    assert got == fresh
    assert _alive(made["memos"]) == []


def test_an_error_in_the_scope_leaves_no_state(tiny_corpus, made):
    bases, queries = tiny_corpus
    plans = exhaustive_orderings(
        queries[0][0], build_catalog(bases[0], SamplingConfig(seed=1))
    )
    fresh = _outcome(bases[0], plans[1])
    made["memos"].clear()
    with shared_prefixes():
        execute(bases[0], plans[0])
        assert _alive(made["memos"]) == [0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "MAX_BATCH_ROWS", 0)
            # step 1 is shared, so step 2 is the first to run
            with pytest.raises(EngineLimitError, match="^plan step 2: "):
                execute(bases[0], plans[1])
        assert _alive(made["memos"]) == [] and _alive(made["batches"]) == []
        assert _outcome(bases[0], plans[1]) == fresh
        assert _alive(made["memos"]) == [1]
    with pytest.raises(EngineLimitError):
        with shared_prefixes():
            execute(bases[0], plans[0])
            raise EngineLimitError("raised in the block")
    assert _alive(made["memos"]) == [] and _alive(made["batches"]) == []
