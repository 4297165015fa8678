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
    generate_synthetic,
    parse_atom,
    parse_dob,
    render_dob,
)
from dobquery import engine
from dobquery.engine import Answers, Counters
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
    load_catalog,
    pattern_cardinality,
)
from conftest import (
    bottom_up_oracle, random_base, refuse_terms_and_printing, scaled_config,
)


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
        SamplingConfig(d=d)


def test_alpha_monotone_in_d_and_p():
    ds = [0.1, 0.2, 0.5, 1.0]
    ps = [0.0, 0.3, 0.7, 0.9]
    for p in ps:
        values = [alpha(SamplingConfig(d=d, p=p)) for d in ds]
        assert values == sorted(values)
    for d in ds:
        values = [alpha(SamplingConfig(d=d, p=p)) for p in ps]
        assert values == sorted(values)


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
    assert stats.cardinality == pytest.approx(12.0)
    # bound-pattern cost is the sampled partition mean, free is mean * n
    assert stats.cost[ff] == pytest.approx(stats.cost[bf] * 4)
    assert set(stats.cost) == set(all_patterns(2))


def test_estimate_zero_domain_gives_zero(cars_base):
    cfg = SamplingConfig(seed=17)
    stats = estimate_iob_stats(cars_base, "areStatements", cfg)
    assert all(
        pattern_cardinality(stats, p) == 0.0 for p in all_patterns(3)
    )
    assert stats.low_confidence


def test_bound_cardinality_never_exceeds_free():
    rng = random.Random(77)
    cfg = SamplingConfig(seed=9)
    for _ in range(6):
        base = random_base(rng)
        for pred in ("areClasses", "areIndividuals", "areStatements"):
            stats = estimate_iob_stats(base, pred, cfg)
            for pattern in all_patterns(len(stats.distinct_values)):
                assert pattern_cardinality(stats, pattern) <= (
                    stats.cardinality + 1e-9
                )


def test_build_catalog_covers_all_predicates(cars_base):
    catalog = build_catalog(cars_base, SamplingConfig(d=0.2, p=0.7, k=7, seed=42))
    assert len(catalog.entries) == 15
    is_class = catalog.entries["isClass"]
    assert isinstance(is_class, EobStats)
    assert is_class.cardinality == 4
    are_classes = catalog.entries["areClasses"]
    assert isinstance(are_classes, IobStats)
    assert are_classes.cardinality == pytest.approx(12.0)


def test_build_catalog_deterministic_under_seed(cars_base):
    cfg = SamplingConfig(d=0.2, p=0.7, k=7, seed=42)
    assert build_catalog(cars_base, cfg) == build_catalog(cars_base, cfg)


def test_catalog_roundtrip(cars_base):
    catalog = build_catalog(cars_base, SamplingConfig(seed=4, m_max=64))
    text = catalog_to_text(catalog)
    assert catalog_from_text(text) == catalog
    # a second serialization of the parsed catalog is byte-identical
    assert catalog_to_text(catalog_from_text(text)) == text


def test_blank_catalog_lines_are_skipped(cars_base):
    text = catalog_to_text(build_exact_catalog(cars_base))
    lines = text.splitlines()
    spaced = "\n".join([*lines[:3], "", "  ", *lines[3:5], "", *lines[5:]])
    assert catalog_from_text(spaced) == catalog_from_text(text)


def test_a_catalog_lacking_a_predicate_does_not_round_trip(cars_base):
    """`catalog_to_text` writes no row for a predicate the catalog lacks,
    and reading that text back is refused, naming the predicate."""
    catalog = build_exact_catalog(cars_base)
    entries = dict(catalog.entries)
    del entries["areSubClasses"]
    text = catalog_to_text(StatisticsCatalog(entries, catalog.config))
    assert "areSubClasses" not in text
    with pytest.raises(
        AnalyzerError, match="^catalog has no entry for areSubClasses$"
    ):
        catalog_from_text(text)


@pytest.mark.parametrize("clt", ["0", "1"])
def test_older_catalog_text_loads(cars_base, clt):
    """A header as older versions wrote it, with a `clt=` token and a
    `# created` line, loads as the same text without them."""
    text = catalog_to_text(build_catalog(cars_base, SamplingConfig(seed=4)))
    lines = text.splitlines(keepends=True)
    assert lines[1].startswith("# config ")
    lines[1] = lines[1].rstrip("\n") + f" clt={clt}\n"
    lines.insert(2, "# created 2024-01-01T00:00:00+00:00\n")
    assert catalog_from_text("".join(lines)) == catalog_from_text(text)


@pytest.mark.parametrize("setting, message", [
    ("d=0", "relative error d must be positive and finite: 0.0"),
    ("p=1", r"confidence p must lie in \[0, 1\): 1.0"),
    ("k=0", "first-stage sample count must be >= 1: 0"),
    ("mmax=0", "sample cap m_max must be >= 1: 0"),
])
def test_out_of_range_header_setting_is_refused(cars_base, setting, message):
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    key, value = setting.split("=")
    fields = {"d": "0.2", "p": "0.7", "k": "7", "seed": "0", "mmax": "auto",
              key: value}
    lines[1] = "# config " + " ".join(f"{k}={v}" for k, v in fields.items())
    with pytest.raises(AnalyzerError, match=f"^catalog line 2: {message}$"):
        catalog_from_text("\n".join(lines))


def test_a_loaded_catalogs_refusals_name_its_file(cars_base, tmp_path):
    """`load_catalog` puts the file before every refusal of the text;
    `catalog_from_text` has no file to name."""
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    missing = "\n".join(
        ln for ln in lines if not ln.startswith("areClasses | IOB | bf ")
    )
    bad_row = "\n".join([*lines[:3], "isClass | EOB | ff | 4 | 4", *lines[3:]])
    for text, message in (
        (missing, "catalog is missing patterns for areClasses: bf"),
        (bad_row, "catalog line 4: expected 6 columns"),
    ):
        path = tmp_path / "cars.cat"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(AnalyzerError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path}: {message}"
        with pytest.raises(AnalyzerError) as info:
            catalog_from_text(text)
        assert str(info.value) == message


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
    # the catalog's own row comes first, so the inserted row is the second
    ("isOntology | EOB | f | 3 | 3 | 3",
     r"catalog line 4: second row for isOntology \(first on line 3\)"),
    ("areClasses | IOB | bf | 3.0 | 11.0 | 4.0 3.0",
     r"catalog line 24: second row for areClasses bf \(first on line 4\)"),
    ("areClasses | IOB | bf | 3.0 | 11.0 | 4.0 2.0",
     "catalog line 22: distinct values of areClasses differ from line 4"),
    ("areClasses | IOB | fff | 1.0 | 1.0 | 4.0 3.0",
     "catalog line 4: pattern of areClasses must have 2 letters, got 'fff'"),
])
def test_catalog_parse_errors_name_the_line(cars_base, bad, message):
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    lines.insert(3, bad)
    with pytest.raises(AnalyzerError, match=message):
        catalog_from_text("\n".join(lines))


@pytest.mark.parametrize("line_no, row, message", [
    (23, "areClasses | IOB | bf | 999.0 | 11.0 | 4.0 3.0",
     "catalog line 23: cardinality of areClasses bf must be 3.0 by its "
     "all-free cardinality and distinct values, got 999.0"),
    # a changed all-free cardinality leaves the first bound row wrong
    (21, "areClasses | IOB | ff | 13.0 | 44.0 | 4.0 3.0",
     "catalog line 22: cardinality of areClasses fb must be "
     "4.333333333333333 by its all-free cardinality and distinct values, "
     "got 4.0"),
], ids=["bound-row", "free-row"])
def test_inconsistent_iob_cardinality_is_refused(cars_base, line_no, row,
                                                 message):
    """An IOB row's cardinality is the all-free row's divided by the
    distinct values of its bound arguments; another value names its
    line."""
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    assert lines[line_no - 1].startswith(row.split(" | ")[0])
    lines[line_no - 1] = row
    with pytest.raises(AnalyzerError) as info:
        catalog_from_text("\n".join(lines))
    assert str(info.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["# dob catalog v9", *lines[1:]],
     "catalog line 1: expected '# dob catalog v1', got '# dob catalog v9'"),
    (lambda lines: lines[1:],
     "catalog line 1: expected '# dob catalog v1', got '# config d=0.2 "
     "p=0.7 k=7 seed=0 mmax=auto'"),
    (lambda lines: lines[2:],
     "catalog line 1: expected '# dob catalog v1', got 'isOntology | EOB "
     "| f | 3 | 3 | 3'"),
    (lambda lines: [lines[0], *lines[2:]],
     "catalog line 2: no '# config' line before the first row"),
    (lambda lines: [lines[0], *lines[2:], lines[1]],
     "catalog line 2: no '# config' line before the first row"),
    (lambda lines: [*lines, "# config d=0.5 p=0.7 k=7 seed=0"],
     "catalog line 37: second '# config' line (first on line 2)"),
    (lambda lines: [*lines[:2], "# config d=0.5 p=0.7 k=7 seed=0",
                    *lines[2:]],
     "catalog line 3: second '# config' line (first on line 2)"),
], ids=["v9", "no-version", "no-comments", "no-config", "config-after-rows",
        "second-config-after-rows", "second-config-before-rows"])
def test_catalog_header_is_strict(cars_base, edit, message):
    """Line 1 is the v1 header and one `# config` line comes before the
    first row."""
    lines = catalog_to_text(build_exact_catalog(cars_base)).splitlines()
    with pytest.raises(AnalyzerError) as info:
        catalog_from_text("\n".join(edit(lines)))
    assert str(info.value) == message


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
                tuple(draw(_numbers) for _ in range(n)),
                draw(_numbers),
                {p: draw(_numbers) for p in all_patterns(n)},
            )
    config = SamplingConfig(
        d=draw(st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False)),
        p=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        k=draw(st.integers(min_value=1, max_value=10**6)),
        m_max=draw(st.none() | st.integers(min_value=1, max_value=10**6)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
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
        assert stats.cardinality == exact


def _refuse_answer_text(*_args):
    raise AssertionError("answer text built")


def test_catalogs_build_no_answer_text(cars_base, monkeypatch):
    """The analyzer reads answer counts and id rows only: building either
    catalog makes no answer `Atom`, no constant `Term` (its draws read
    the pooled ones) and no printed text."""
    bases = [cars_base, random_base(random.Random(5))]
    monkeypatch.setattr(OntologyBase, "facts", _refuse_answer_text)
    monkeypatch.setattr(Answers, "__iter__", _refuse_answer_text)
    refuse_terms_and_printing(monkeypatch)
    for base in bases:
        build_catalog(base, SamplingConfig())
        build_exact_catalog(base)


def test_sampling_leaves_base_unchanged(cars_base):
    before = [str(a) for a in cars_base.facts()]
    build_catalog(cars_base, SamplingConfig(seed=1))
    assert [str(a) for a in cars_base.facts()] == before


def _count_solve_calls(monkeypatch) -> Counters:
    """Counters that sum the work of every later `engine.solve` call."""
    solved = Counters()
    solve = engine.solve

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        solved.inferred_facts += result.inferred_fact_count
        solved.eob_accesses += result.eob_access_count
        return result

    monkeypatch.setattr(engine, "solve", counting_solve)
    return solved


def test_build_catalog_reports_the_work_of_its_solve_calls(monkeypatch):
    """A catalog's counters are the engine work of every `engine.solve`
    call its build makes, on the benchmark's analyze smoke input (scale 2,
    corpus seed 0, rendered and parsed again)."""
    text = render_dob(generate_synthetic(scaled_config(2, 0))[0].facts())
    base = OntologyBase.from_facts(parse_dob(text))
    solved = _count_solve_calls(monkeypatch)
    catalog = build_catalog(base, SamplingConfig())
    assert solved.inferred_facts > 0 and solved.eob_accesses > 0
    assert catalog.counters == solved
    assert catalog_from_text(catalog_to_text(catalog)) == catalog


def test_build_exact_catalog_reports_the_work_of_its_solve_calls(monkeypatch):
    """The exact catalog's counters are the engine work of every
    `engine.solve` call its build makes, the all-free calls on the shared
    memo included, on a scale-1 synthetic base."""
    base, _ = generate_synthetic(scaled_config(1, 0))
    solved = _count_solve_calls(monkeypatch)
    catalog = build_exact_catalog(base)
    assert solved.inferred_facts > 0 and solved.eob_accesses > 0
    assert catalog.counters == solved


def test_adaptive_sample_refuses_a_pattern_of_another_arity(cars_base):
    with pytest.raises(AnalyzerError) as info:
        adaptive_sample(
            cars_base, "areSubClasses", BindingPattern.parse("bbb"), "cost",
            SamplingConfig(seed=1),
        )
    assert str(info.value) == "pattern arity mismatch for areSubClasses"
