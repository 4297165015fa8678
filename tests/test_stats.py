import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dobquery import (
    OntologyBase,
    SamplingConfig,
    adaptive_sample,
    alpha,
    build_catalog,
    build_exact_catalog,
    compute_eob_stats,
    estimate_iob_stats,
    parse_atom,
)
from dobquery.engine import Answers
from dobquery.model import BUILTIN_SCHEMA, PredicateKind, schema_for
from dobquery.stats import (
    AnalyzerError,
    BindingPattern,
    EobStats,
    IobStats,
    StatisticsCatalog,
    all_patterns,
    catalog_from_text,
    catalog_to_text,
)
from conftest import bottom_up_oracle, random_base


def test_binding_pattern_parse_and_format():
    p = BindingPattern.parse("bf")
    assert str(p) == "bf" and p.bound_positions == (0,)
    assert BindingPattern.free(3).all_free
    with pytest.raises(AnalyzerError):
        BindingPattern.parse("bx")


def test_all_patterns_counts():
    assert len(all_patterns(2)) == 4
    assert len(all_patterns(3)) == 8


def test_eob_stats_cars(cars_base):
    stats = compute_eob_stats(cars_base)
    assert stats["isDProperty"].cardinality == 3
    assert stats["isDProperty"].n_keys == (3, 2)
    assert stats["isClass"].n_keys[1] == 1  # only carsOnt declares classes
    assert stats["isStatement"].cardinality == 0
    assert stats["isStatement"].n_keys == (0, 0, 0)


def test_alpha_reference_values():
    assert alpha(SamplingConfig(d=0.2, p=0.7)) == pytest.approx(
        0.24 / (1 - math.sqrt(0.7))
    )
    assert alpha(SamplingConfig(d=0.2, p=0.7)) == pytest.approx(1.4694, abs=1e-4)
    assert alpha(SamplingConfig(d=1.0, p=0.0)) == pytest.approx(2.0)


def test_alpha_domain_errors():
    with pytest.raises(AnalyzerError):
        alpha(SamplingConfig(d=0.2, p=1.0))
    with pytest.raises(AnalyzerError):
        alpha(SamplingConfig(d=0.0, p=0.5))


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_non_finite_relative_error_is_refused(d):
    with pytest.raises(AnalyzerError, match="d must be positive and finite"):
        SamplingConfig(d=d).validate()


def test_alpha_monotone_in_d_and_p():
    ds = [0.1, 0.2, 0.5, 1.0]
    ps = [0.0, 0.3, 0.7, 0.9]
    for p in ps:
        values = [alpha(SamplingConfig(d=d, p=p)) for d in ds]
        assert values == sorted(values)
    for d in ds:
        values = [alpha(SamplingConfig(d=d, p=p)) for p in ps]
        assert values == sorted(values)


def test_alpha_normal_quantile_variant():
    base_cfg = SamplingConfig(d=0.2, p=0.7, clt_factor=True)
    z = 1.0364333894937898  # standard normal quantile at 0.85
    assert alpha(base_cfg) == pytest.approx(0.24 * z)
    with pytest.raises(AnalyzerError):
        alpha(SamplingConfig(d=0.2, p=0.0, clt_factor=True))


def domain_size(base, predicate: str, arg_position: int) -> int:
    """Size of an argument's instantiation domain; positions are 1-based."""
    domain = schema_for(predicate).arg_domains[arg_position - 1]
    return len(base.domain_values(domain))


def test_domain_sizes_cars(cars_base):
    assert domain_size(cars_base, "areClasses", 1) == 4   # Card(isClass)
    assert domain_size(cars_base, "areClasses", 2) == 3   # Card(isOntology)
    assert domain_size(cars_base, "areIndividuals", 1) == 1
    assert domain_size(cars_base, "areStatements", 2) == 4  # obj + data props
    assert domain_size(cars_base, "areStatements", 3) == 0  # no statements


def test_domain_sizes_empty_base():
    base = OntologyBase()
    for pred, arity in [("areClasses", 2), ("areStatements", 3)]:
        for pos in range(1, arity + 1):
            assert domain_size(base, pred, pos) == 0


def test_adaptive_sample_constant_population_stops_early(cars_base):
    cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=3)
    run = adaptive_sample(
        cars_base, "areClasses", BindingPattern.free(2), "cardinality", cfg
    )
    # identical value in every partition: stop once z > alpha * value
    assert run.m <= cfg.k + math.ceil(alpha(cfg))
    assert not run.low_confidence


def test_adaptive_sample_degenerate_zero_population(cars_base):
    cfg = SamplingConfig(seed=5)
    run = adaptive_sample(
        cars_base, "areStatements", BindingPattern.free(3), "cardinality", cfg
    )
    assert run.mean == 0.0 and run.low_confidence


def test_adaptive_sample_empty_domain():
    cfg = SamplingConfig(seed=5)
    run = adaptive_sample(
        OntologyBase(), "areStatements", BindingPattern.free(3),
        "cardinality", cfg,  # every domain is empty on an empty base
    )
    assert run.n == 0 and run.mean == 0.0 and run.low_confidence


def test_adaptive_sample_rejects_bad_requests(cars_base):
    cfg = SamplingConfig()
    with pytest.raises(AnalyzerError):
        adaptive_sample(cars_base, "isClass", BindingPattern.free(2), "cost", cfg)
    with pytest.raises(AnalyzerError):
        adaptive_sample(
            cars_base, "areClasses", BindingPattern.parse("bf"),
            "cardinality", cfg,
        )
    with pytest.raises(AnalyzerError):
        adaptive_sample(
            cars_base, "areClasses", BindingPattern.free(2), "entropy", cfg
        )


def test_estimate_iob_stats_cars(cars_base):
    cfg = SamplingConfig(seed=17)
    stats = estimate_iob_stats(cars_base, "areClasses", cfg)
    ff, bf = BindingPattern.parse("ff"), BindingPattern.parse("bf")
    assert stats.cardinality[ff] == pytest.approx(12.0)
    # bound-pattern cost is the sampled partition mean, free is mean * n
    assert stats.cost[ff] == pytest.approx(stats.cost[bf] * 4)
    assert set(stats.cardinality) == set(all_patterns(2))


def test_estimate_zero_domain_gives_zero(cars_base):
    cfg = SamplingConfig(seed=17)
    stats = estimate_iob_stats(cars_base, "areStatements", cfg)
    assert all(v == 0.0 for v in stats.cardinality.values())
    assert stats.low_confidence


def test_bound_cardinality_never_exceeds_free():
    rng = random.Random(77)
    cfg = SamplingConfig(seed=9)
    for _ in range(6):
        base = random_base(rng)
        for pred in ("areClasses", "areIndividuals", "areStatements"):
            stats = estimate_iob_stats(base, pred, cfg)
            free = stats.cardinality[BindingPattern.free(stats.arity)]
            for pattern, value in stats.cardinality.items():
                assert value <= free + 1e-9


def test_build_catalog_covers_all_predicates(cars_base):
    catalog = build_catalog(cars_base, SamplingConfig(d=0.2, p=0.7, k=7, seed=42))
    assert len(catalog.entries) == 15
    is_class = catalog.entries["isClass"]
    assert isinstance(is_class, EobStats)
    assert is_class.cardinality == 4
    are_classes = catalog.entries["areClasses"]
    assert isinstance(are_classes, IobStats)
    assert are_classes.cardinality[
        BindingPattern.free(2)
    ] == pytest.approx(12.0)


def test_build_catalog_deterministic_under_seed(cars_base):
    cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=42)
    assert build_catalog(cars_base, cfg) == build_catalog(cars_base, cfg)


def test_catalog_roundtrip(cars_base):
    catalog = build_catalog(cars_base, SamplingConfig(seed=4, m_max=64))
    text = catalog_to_text(catalog)
    assert catalog_from_text(text) == catalog
    # a second serialization of the parsed catalog is byte-identical
    reparsed = catalog_from_text(text)
    reparsed.created_at = catalog.created_at
    assert catalog_to_text(reparsed) == text


@pytest.mark.parametrize("bad, message", [
    ("isClass | EOB | ff | four | 4 | 4 1", "catalog line 4: could not convert"),
    ("isClass | EOB | ff | 4 | 4 | 4 x", "catalog line 4: invalid literal"),
    ("isClass | EOB | ff | 4 | 4", "catalog line 4: expected 6 columns"),
    ("isClass | EOB | ff | 4 | 4 | 4", "catalog line 4: nKeys arity mismatch"),
    ("noSuchPred | EOB | f | 4 | 4 | 4", "catalog line 4: unknown predicate"),
    ("areClasses | IOB | bx | 4 | 4 | 4 1", "catalog line 4: bad binding"),
    ("isClass | XYZ | ff | 4 | 4 | 4 1", "catalog line 4: bad kind"),
    ("isOntology | IOB | f | 1 | 1 | 1",
     "catalog line 4: isOntology is an EOB predicate, not IOB"),
    ("areClasses | EOB | ff | 4 | 4 | 4 1",
     "catalog line 4: areClasses is an IOB predicate, not EOB"),
    ("areClasses | IOB | ff | 4 | 4 | 4",
     "catalog line 4: distinct-value arity mismatch for areClasses"),
    # an EOB row has the all-free pattern and its cardinality as cost
    ("isOntology | EOB | banana | 3 | -5 | 3",
     "catalog line 4: pattern of isOntology must be 'f', got 'banana'"),
    ("isClass | EOB | fb | 4 | 4 | 4 1",
     "catalog line 4: pattern of isClass must be 'ff', got 'fb'"),
    ("isOntology | EOB | f | 3 | -5 | 3",
     "catalog line 4: cost must be finite and non-negative, got '-5'"),
    ("isOntology | EOB | f | 3 | 4 | 3",
     "catalog line 4: cost of isOntology must equal its cardinality 3, "
     "got '4'"),
    # the inserted row comes first, so the catalog's own row is the second
    ("isOntology | EOB | f | 3 | 3 | 3",
     r"catalog line 5: second row for isOntology \(first on line 4\)"),
    ("areClasses | IOB | bf | 3.0 | 11.0 | 4.0 3.0",
     r"catalog line 25: second row for areClasses bf \(first on line 4\)"),
    ("areClasses | IOB | bf | 3.0 | 11.0 | 4.0 2.0",
     "catalog line 23: distinct values of areClasses differ from line 4"),
    ("areClasses | IOB | fff | 1.0 | 1.0 | 4.0 3.0",
     "catalog line 4: pattern of areClasses must have 2 letters, got 'fff'"),
])
def test_catalog_parse_errors_name_the_line(cars_base, bad, message):
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    lines.insert(3, bad)
    with pytest.raises(AnalyzerError, match=message):
        catalog_from_text("\n".join(lines))


@pytest.mark.parametrize("bad, what, text", [
    ("isClass | EOB | ff | inf | 4 | 4 1", "cardinality", "inf"),
    ("isClass | EOB | ff | -4 | 4 | 4 1", "cardinality", "-4"),
    ("isClass | EOB | ff | 4 | 4 | 4 -3", "nKeys", "-3"),
    ("areClasses | IOB | ff | nan | 4 | 4 1", "cardinality", "nan"),
    ("areClasses | IOB | ff | -1e300 | 4 | 4 1", "cardinality", "-1e300"),
    ("areClasses | IOB | ff | 4 | -5 | 4 1", "cost", "-5"),
    ("areClasses | IOB | ff | 4 | inf | 4 1", "cost", "inf"),
    ("areClasses | IOB | ff | 4 | 4 | 4 -0.5", "distinct value", "-0.5"),
    ("areClasses | IOB | ff | 4 | 4 | NaN 1", "distinct value", "NaN"),
])
def test_catalog_numbers_must_be_finite_and_non_negative(cars_base, bad, what,
                                                         text):
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    lines.insert(3, bad)
    with pytest.raises(AnalyzerError) as info:
        catalog_from_text("\n".join(lines))
    assert str(info.value) == (
        f"catalog line 4: {what} must be finite and non-negative, "
        f"got {text!r}"
    )


# Counts reach past 2**53, where a float no longer holds every integer.
_counts = st.integers(min_value=0, max_value=2**64)
_numbers = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _catalogs(draw):
    entries = {}
    for name, schema in BUILTIN_SCHEMA.items():
        n = schema.arity
        if schema.kind is PredicateKind.EOB:
            entries[name] = EobStats(
                draw(_counts), tuple(draw(_counts) for _ in range(n))
            )
        else:
            entries[name] = IobStats(
                n,
                tuple(draw(_numbers) for _ in range(n)),
                {p: draw(_numbers) for p in all_patterns(n)},
                {p: draw(_numbers) for p in all_patterns(n)},
            )
    config = SamplingConfig(
        d=draw(st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False)),
        p=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        k=draw(st.integers(min_value=1, max_value=10**6)),
        m_max=draw(st.none() | st.integers(min_value=1, max_value=10**6)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        clt_factor=draw(st.booleans()),
    )
    return StatisticsCatalog(entries, config)


@given(_catalogs())
def test_catalog_text_round_trips(catalog):
    parsed = catalog_from_text(catalog_to_text(catalog))
    assert parsed == catalog
    assert parsed.config == catalog.config


def test_incomplete_catalog_is_refused_at_load(cars_base):
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    kept = [
        ln for ln in lines if ln.startswith(("#", "isClass ", "areClasses "))
    ]
    with pytest.raises(AnalyzerError, match="no entry for isOntology, "
                       "impOntology, .*, areStatements$") as info:
        catalog_from_text("\n".join(kept))
    assert "isClass," not in str(info.value)
    assert "areClasses," not in str(info.value)


def test_cars_free_cardinality_accurate_over_seeds(cars_base):
    hits = 0
    for seed in range(100):
        cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=seed)
        run = adaptive_sample(
            cars_base, "areClasses", BindingPattern.free(2), "cardinality", cfg
        )
        if abs(run.mean * run.n - 12.0) <= 0.2 * 12.0:
            hits += 1
    assert hits >= 70


def test_estimator_guarantee_sampled_bases():
    # scaled-down version of the acceptance run: 6 bases x 5 seeds over
    # uniformly generated structure (the estimator's distribution assumption)
    from dobquery import SynthConfig, generate_synthetic

    for pred in ("areClasses", "areIndividuals"):
        hits = trials = 0
        for b in range(6):
            base, _ = generate_synthetic(SynthConfig(seed=500 + b))
            exact = sum(
                1 for a in bottom_up_oracle(base) if a.predicate == pred
            )
            for seed in range(5):
                cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=seed)
                run = adaptive_sample(
                    base, pred, BindingPattern.free(2), "cardinality", cfg,
                )
                estimate = run.mean * run.n
                ok = (
                    abs(estimate - exact) <= 0.2 * exact
                    if exact
                    else estimate == 0.0
                )
                hits += ok
                trials += 1
        assert hits >= 0.5 * trials


def test_exact_catalog_matches_oracle_cardinalities(cars_base):
    catalog = build_exact_catalog(cars_base)
    oracle = bottom_up_oracle(cars_base)
    for pred in ("areClasses", "areSubClasses", "areIndividuals"):
        stats = catalog.entries[pred]
        assert isinstance(stats, IobStats)
        exact = sum(1 for a in oracle if a.predicate == pred)
        assert stats.cardinality[BindingPattern.free(stats.arity)] == exact


def _refuse_answer_text(*_args):
    raise AssertionError("answer text built")


def test_catalogs_build_no_answer_text(cars_base, monkeypatch):
    """The analyzer reads answer counts and id rows only: building either
    catalog makes no answer `Atom`."""
    bases = [cars_base, random_base(random.Random(5))]
    monkeypatch.setattr(OntologyBase, "to_atom", _refuse_answer_text)
    monkeypatch.setattr(Answers, "__iter__", _refuse_answer_text)
    for base in bases:
        build_catalog(base, SamplingConfig())
        build_exact_catalog(base)


def test_sampling_leaves_base_unchanged(cars_base):
    before = [str(a) for a in cars_base.facts()]
    build_catalog(cars_base, SamplingConfig(seed=1))
    assert [str(a) for a in cars_base.facts()] == before
