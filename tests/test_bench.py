import math

import pytest

from dobquery import (
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
from dobquery.engine import Answers
from dobquery.store import SymbolTable
from conftest import refuse_text

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
